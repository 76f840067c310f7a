package mrcluster_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/hdfs"
	"repro/internal/mapreduce"
	"repro/internal/mrcluster"
	"repro/internal/sim"
	"repro/internal/vfs"
	"repro/internal/yarn"
)

// TestRunningListMatchesJobs checks, after every engine event, that the
// JobTracker's running-job list is exactly its jobs filtered to running
// ones, in submission order — while jobs arrive, succeed, fail on task
// errors, fail at commit from inside finishJob's own pass, and lose a
// tracker, with and without YARN.
func TestRunningListMatchesJobs(t *testing.T) {
	for _, mode := range []string{"slots", "yarn"} {
		t.Run(mode, func(t *testing.T) {
			rig := runningRig(t, mode == "yarn")
			rig.stage(t, "/in/data.txt", corpus(4000))
			rig.mc.InjectTaskFault(mrcluster.TaskFault{JobName: "faulty", Probability: 1, AfterFraction: 0.5})

			gw := rig.dfs.Client(hdfs.GatewayNode)
			jobs := map[string]*mrcluster.JobHandle{}
			submit := func(name string, job *mapreduce.Job) {
				job.Name = name
				h, err := rig.mc.Submit(job)
				if err != nil {
					t.Fatal(err)
				}
				jobs[name] = h
			}
			rig.eng.After(0, func() { submit("ok0", wordCountJob("/in", "/out/ok0")) })
			rig.eng.After(time.Second, func() { submit("faulty", wordCountJob("/in", "/out/faulty")) })
			rig.eng.After(2*time.Second, func() {
				// The reducer squats on the _SUCCESS path, so the commit
				// in finishJob fails and runs failJob and another pass.
				job := wordCountJob("/in", "/out/nocommit")
				newReducer := job.NewReducer
				job.NewReducer = func() mapreduce.Reducer {
					if err := gw.Mkdir("/out/nocommit/_SUCCESS"); err != nil {
						t.Error(err)
					}
					return newReducer()
				}
				submit("nocommit", job)
			})
			rig.eng.After(3*time.Second, func() { submit("ok1", wordCountJob("/in", "/out/ok1")) })
			rig.eng.After(4*time.Second, func() { rig.mc.KillTaskTracker(2) })
			rig.eng.After(20*time.Second, func() { rig.mc.StartTaskTracker(2) })
			rig.eng.After(25*time.Second, func() { submit("ok2", wordCountJob("/in", "/out/ok2")) })

			allDone := func() bool {
				if len(jobs) < 5 {
					return false
				}
				for _, h := range jobs {
					if !h.Done() {
						return false
					}
				}
				return true
			}
			for guard := 0; !allDone(); guard++ {
				if !rig.eng.Step() {
					t.Fatal("simulation stalled")
				}
				if err := rig.mc.JT.RunningListError(); err != nil {
					t.Fatalf("t=%v: %v", rig.eng.Now(), err)
				}
				if guard > 10_000_000 {
					t.Fatal("jobs did not finish")
				}
			}
			for name, h := range jobs {
				err := h.Err()
				switch {
				case strings.HasPrefix(name, "ok") && err != nil:
					t.Errorf("%s failed: %v", name, err)
				case name == "faulty" && err == nil:
					t.Error("faulty job succeeded")
				case name == "nocommit" && (err == nil || !strings.Contains(err.Error(), "_SUCCESS")):
					t.Errorf("nocommit: want a _SUCCESS commit failure, got %v", err)
				}
			}
			if lost := rig.dfs.Obs.Counter(mrcluster.MetricJTTrackerLosses).Value(); lost == 0 {
				t.Error("tracker loss never handled")
			}
		})
	}
}

// runningRig builds a 6-node cluster with fast tracker expiry and, with
// withYARN, a capacity ResourceManager the JobTracker takes containers from.
func runningRig(t *testing.T, withYARN bool) *testRig {
	t.Helper()
	eng := sim.NewEngine()
	topo := cluster.NewTopology(cluster.PaperNodeConfig(6, 1))
	dfs, err := hdfs.NewMiniDFS(eng, topo, hdfs.Options{Config: hdfs.Config{BlockSize: 16 << 10}, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	mcfg := mrcluster.Config{HeartbeatInterval: time.Second, TrackerExpiry: 4 * time.Second, MaxAttempts: 2}
	if withYARN {
		rm, err := yarn.NewCapacityResourceManager(eng, topo, yarn.CapacityOptions{Obs: dfs.Obs})
		if err != nil {
			t.Fatal(err)
		}
		mcfg.YARN, mcfg.DefaultQueue = rm, "default"
	}
	return &testRig{eng: eng, dfs: dfs, mc: mrcluster.NewMRCluster(dfs, mcfg, 13)}
}

// BenchmarkScheduleManyFinishedJobs times one scheduling pass on a
// JobTracker that has finished 500 jobs and runs one: the pass should
// cost the running job, not the history.
func BenchmarkScheduleManyFinishedJobs(b *testing.B) {
	eng := sim.NewEngine()
	topo := cluster.NewTopology(cluster.PaperNodeConfig(8, 2))
	dfs, err := hdfs.NewMiniDFS(eng, topo, hdfs.Options{Config: hdfs.Config{BlockSize: 64 << 10}, Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	mc := mrcluster.NewMRCluster(dfs, mrcluster.Config{}, 13)
	if err := vfs.WriteFile(dfs.Client(hdfs.GatewayNode), "/in/data.txt", corpus(50)); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if _, err := mc.Run(wordCountJob("/in", fmt.Sprintf("/out/done%03d", i))); err != nil {
			b.Fatal(err)
		}
	}
	// Every slot scan in a pass looks through the job list for a task
	// to place.
	if _, err := mc.Submit(wordCountJob("/in", "/out/running")); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mc.JT.SchedulePass()
	}
}
