package yarn_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/yarn"
)

// splitQueues splits the cluster between two elastic leaves, "grad" and
// "default", each guaranteed half and allowed to grow to all of it when
// the other is idle. A user limit of 2x the guarantee lets a lone user
// fill the cluster, so the split only bites under contention.
func splitQueues() yarn.QueueConfig {
	return yarn.QueueConfig{
		Name: "root",
		Children: []yarn.QueueConfig{
			{Name: "grad", Capacity: 0.5, UserLimitFactor: 2},
			{Name: "default", Capacity: 0.5, UserLimitFactor: 2},
		},
	}
}

func uniformApp(name, user string, tasks int, perTask time.Duration) yarn.AppSpec {
	spec := yarn.AppSpec{Name: name, User: user}
	for i := 0; i < tasks; i++ {
		spec.Tasks = append(spec.Tasks, yarn.TaskSpec{
			Resource: yarn.Resource{VCores: 2, MemoryMB: 4096},
			Duration: perTask,
		})
	}
	return spec
}

func TestSingleAppRunsToCompletion(t *testing.T) {
	eng, rm := newCapRM(t, 4, yarn.CapacityOptions{})
	app, err := rm.Submit(uniformApp("wordcount", "alice", 10, time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if app.State != yarn.AppRunning {
		t.Fatalf("app state = %v, want RUNNING immediately on a free cluster", app.State)
	}
	eng.Run()
	if app.State != yarn.AppFinished {
		t.Fatalf("state = %v", app.State)
	}
	// 10 tasks x 2vc on 4 nodes x 16 cores: all run in one wave -> ~1 min.
	if app.Makespan() != time.Minute {
		t.Fatalf("makespan = %v, want 1m (single wave)", app.Makespan())
	}
	if rm.Utilization() != 0 {
		t.Fatalf("resources leaked: utilization %.2f after finish", rm.Utilization())
	}
}

func TestWavesWhenOversubscribed(t *testing.T) {
	eng, rm := newCapRM(t, 1, yarn.CapacityOptions{}) // 16 cores: AM takes 1, 7 tasks of 2vc fit
	app, err := rm.Submit(uniformApp("big", "bob", 14, time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if app.Makespan() != 2*time.Minute {
		t.Fatalf("makespan = %v, want 2m (two waves of 7)", app.Makespan())
	}
}

func TestRejectsImpossibleRequests(t *testing.T) {
	_, rm := newCapRM(t, 2, yarn.CapacityOptions{})
	if _, err := rm.Submit(yarn.AppSpec{Name: "empty", User: "x"}); err == nil {
		t.Fatal("empty app accepted")
	}
	huge := yarn.AppSpec{Name: "huge", User: "x", Tasks: []yarn.TaskSpec{{
		Resource: yarn.Resource{VCores: 999, MemoryMB: 1}, Duration: time.Second}}}
	if _, err := rm.Submit(huge); err == nil {
		t.Fatal("oversized container accepted")
	}
}

func TestFIFOStarvesSmallJobs(t *testing.T) {
	// The multi-tenancy lesson: a deadline-night cluster with one huge job
	// at the head of the queue. One FIFO queue makes every later small job
	// wait for the giant; a queue of its own for the big job lets the
	// small jobs take their half as soon as containers free up.
	run := func(queues yarn.QueueConfig, bigQueue string) (bigMakespan time.Duration, smallWait []time.Duration) {
		eng, rm := newCapRM(t, 8, yarn.CapacityOptions{Queues: queues})
		bigSpec := uniformApp("thesis-job", "grad", 400, 2*time.Minute)
		bigSpec.Queue = bigQueue
		big, err := rm.Submit(bigSpec)
		if err != nil {
			t.Fatal(err)
		}
		var smalls []*yarn.Application
		for i := 0; i < 10; i++ {
			eng.Advance(10 * time.Second)
			app, err := rm.Submit(uniformApp(fmt.Sprintf("hw-%d", i), fmt.Sprintf("student%d", i), 4, time.Minute))
			if err != nil {
				t.Fatal(err)
			}
			smalls = append(smalls, app)
		}
		eng.Run()
		if !rm.AllFinished() {
			t.Fatal("apps unfinished")
		}
		for _, s := range smalls {
			smallWait = append(smallWait, s.Makespan())
		}
		return big.Makespan(), smallWait
	}
	bigFIFO, smallFIFO := run(yarn.DefaultQueues(), "")
	bigSplit, smallSplit := run(splitQueues(), "grad")

	medF := median(smallFIFO)
	medS := median(smallSplit)
	t.Logf("small-job median: fifo=%v split=%v; big job: fifo=%v split=%v", medF, medS, bigFIFO, bigSplit)
	if medS*3 > medF {
		t.Fatalf("a queue split should cut small-job latency >=3x: fifo=%v split=%v", medF, medS)
	}
	// The big job pays only modestly for the split.
	if bigSplit > bigFIFO*2 {
		t.Fatalf("split tax on the big job too high: %v vs %v", bigSplit, bigFIFO)
	}
}

func median(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s[len(s)/2]
}

func TestFairSharingIsWorkConserving(t *testing.T) {
	// With a single app, the two-leaf split and the single FIFO queue must
	// perform identically: the split never idles capacity.
	mk := func(queues yarn.QueueConfig) time.Duration {
		eng, rm := newCapRM(t, 2, yarn.CapacityOptions{Queues: queues})
		app, err := rm.Submit(uniformApp("only", "solo", 40, time.Minute))
		if err != nil {
			t.Fatal(err)
		}
		eng.Run()
		return app.Makespan()
	}
	f, s := mk(yarn.DefaultQueues()), mk(splitQueues())
	t.Logf("single-app makespan: fifo=%v split=%v", f, s)
	if f != s {
		t.Fatalf("single-app makespan differs: fifo=%v split=%v", f, s)
	}
}

func TestUtilizationTracksLoad(t *testing.T) {
	eng, rm := newCapRM(t, 1, yarn.CapacityOptions{})
	if _, err := rm.Submit(uniformApp("u", "x", 7, time.Minute)); err != nil {
		t.Fatal(err)
	}
	// AM 1vc + 7x2vc = 15 of 16 cores.
	if u := rm.Utilization(); u < 0.9 {
		t.Fatalf("utilization = %.2f, want ~0.94", u)
	}
	eng.Run()
	if rm.Utilization() != 0 {
		t.Fatal("utilization nonzero after completion")
	}
}

func TestMemoryConstrainedPacking(t *testing.T) {
	// Memory, not cores, is the bottleneck: 64 GB nodes, 30 GB containers
	// -> two per node regardless of cores.
	eng, rm := newCapRM(t, 2, yarn.CapacityOptions{})
	spec := yarn.AppSpec{Name: "mem", User: "m"}
	for i := 0; i < 8; i++ {
		spec.Tasks = append(spec.Tasks, yarn.TaskSpec{
			Resource: yarn.Resource{VCores: 1, MemoryMB: 30 << 10},
			Duration: time.Minute,
		})
	}
	app, err := rm.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	// 8 tasks, 2 nodes x 2 containers = 4 at a time -> 2 waves.
	if app.Makespan() != 2*time.Minute {
		t.Fatalf("makespan = %v, want 2m with memory-limited packing", app.Makespan())
	}
}

func TestDeterministicSchedule(t *testing.T) {
	run := func() []time.Duration {
		eng, rm := newCapRM(t, 4, yarn.CapacityOptions{})
		var apps []*yarn.Application
		for i := 0; i < 6; i++ {
			a, err := rm.Submit(uniformApp(fmt.Sprintf("a%d", i), "u", 10+i, time.Minute))
			if err != nil {
				t.Fatal(err)
			}
			apps = append(apps, a)
			eng.Advance(5 * time.Second)
		}
		eng.Run()
		var out []time.Duration
		for _, a := range apps {
			out = append(out, a.Makespan())
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic schedule: %v vs %v", a, b)
		}
	}
}

func TestAMDrainKeepsWaitTime(t *testing.T) {
	// Draining the AM's node sends the app back to PENDING for a fresh AM;
	// its wait is still measured to the first AM container, not the last.
	eng, rm := newCapRM(t, 2, yarn.CapacityOptions{})
	app, err := rm.Submit(uniformApp("drained", "d", 4, 2*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	eng.Advance(time.Minute)
	amNode := ""
	for _, ev := range rm.EventLog().Events() {
		if ev.Type == yarn.EvAMStart {
			amNode = ev.Attrs["node"]
		}
	}
	var id int
	if _, err := fmt.Sscan(amNode, &id); err != nil {
		t.Fatalf("no AM start logged: %v", err)
	}
	rm.SetNodeActive(cluster.NodeID(id), false)
	eng.Run()
	if app.State != yarn.AppFinished {
		t.Fatalf("state = %v after drain", app.State)
	}
	amStarts, waitNS := 0, ""
	for _, ev := range rm.EventLog().Events() {
		switch ev.Type {
		case yarn.EvAMStart:
			amStarts++
		case yarn.EvAppFinish:
			waitNS = ev.Attrs["wait_ns"]
		}
	}
	if amStarts != 2 {
		t.Fatalf("AM starts = %d, want 2 (original + re-grant after drain)", amStarts)
	}
	if app.WaitTime() != 0 || waitNS != "0" {
		t.Fatalf("WaitTime() = %v, wait_ns = %s; want 0: the first AM started at submit", app.WaitTime(), waitNS)
	}
	if err := yarn.CheckLog(rm.EventLog().Events()); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCapacitySchedulerManyApps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng, rm := newCapRM(b, 8, yarn.CapacityOptions{Queues: splitQueues()})
		for j := 0; j < 50; j++ {
			spec := uniformApp(fmt.Sprintf("a%d", j), "u", 20, time.Minute)
			if j%2 == 1 {
				spec.Queue = "grad"
			}
			if _, err := rm.Submit(spec); err != nil {
				b.Fatal(err)
			}
		}
		eng.Run()
		if !rm.AllFinished() {
			b.Fatal("unfinished")
		}
	}
}
