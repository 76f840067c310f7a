package hdfs_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/faultinject"
	"repro/internal/hdfs"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// checkReplQueue fails the test if a block the full block-map scan would
// act on sits outside the replication queue: such a block would never be
// repaired, because the monitor only visits queued blocks.
func checkReplQueue(t *testing.T, d *hdfs.MiniDFS, when string) {
	t.Helper()
	if missed := d.NN.UnqueuedUnsettled(); len(missed) > 0 {
		t.Fatalf("%s (t=%v): blocks %v need the replication monitor but are not queued",
			when, d.Engine.Now(), missed)
	}
}

// stepChecked runs the engine one event at a time until the clock reaches
// until, checking the replication queue after every event.
func stepChecked(t *testing.T, d *hdfs.MiniDFS, until sim.Time) {
	t.Helper()
	done := false
	d.Engine.Schedule(until, func() { done = true })
	for !done {
		if !d.Engine.Step() {
			t.Fatal("engine ran out of events")
		}
		checkReplQueue(t, d, "after step")
	}
}

// TestReplQueueNeverMissesABlock drives every kind of change to a block's
// replica set, corrupt set, target or holder liveness and checks, after
// every single engine event, that the replication queue holds each block
// a full scan of the block map would act on.
func TestReplQueueNeverMissesABlock(t *testing.T) {
	t.Run("faultplan", func(t *testing.T) {
		var corrupt, copies, drops int64
		for trial := int64(0); trial < 3; trial++ {
			d, _ := chaosDFS(t, 9300+trial)
			plan := faultinject.RandomPlan(9300+trial, faultinject.PlanOpts{
				Nodes: 6, Racks: 2, Events: 30,
				Horizon:           90 * time.Second,
				MaxConcurrentDown: 2,
				Kinds: []faultinject.Kind{
					faultinject.NodeCrash, faultinject.NodeRestart,
					faultinject.DiskCorruptBlock, faultinject.NetPartition,
					faultinject.NetHeal, faultinject.HeartbeatDrop,
				},
			})
			in, err := faultinject.New(faultinject.Target{Engine: d.Engine, DFS: d}, plan)
			if err != nil {
				t.Fatal(err)
			}
			// Client traffic alongside the faults: reads surface corrupt
			// replicas, writes into a crashed-but-not-yet-dead node commit
			// short pipelines, deletes free blocks mid-flight and setrep
			// moves targets both ways. Errors are expected and ignored.
			c := d.Client(hdfs.GatewayNode)
			tick := 0
			d.Engine.Every(3*time.Second, func() {
				tick++
				for i := 0; i < 8; i++ {
					_, _ = vfs.ReadFile(c, fmt.Sprintf("/data/f%02d", i))
				}
				w := d.Client(cluster.NodeID(tick % 6))
				_ = vfs.WriteFile(w, fmt.Sprintf("/churn/f%03d", tick), make([]byte, 5<<10))
				if tick > 4 {
					_ = c.Remove(fmt.Sprintf("/churn/f%03d", tick-4), false)
				}
				_ = c.SetReplication(fmt.Sprintf("/data/f%02d", tick%8), 2+tick%3)
			})
			base := d.Engine.Now()
			in.Install()
			stepChecked(t, d, base+plan.Horizon()+2*time.Minute)
			corrupt += d.NN.CorruptionsDetected()
			copies += d.NN.ReplicationsScheduled()
			drops += d.Obs.Counter(hdfs.MetricNNExcessReplicasDropped).Value()
		}
		if corrupt == 0 || copies == 0 || drops == 0 {
			t.Fatalf("plans too mild to exercise the queue: %d corruptions, %d copies, %d excess drops",
				corrupt, copies, drops)
		}
	})

	t.Run("setrep", func(t *testing.T) {
		d, _ := chaosDFS(t, 1)
		c := d.Client(hdfs.GatewayNode)
		for _, repl := range []int{5, 2, 4, 1, 3} {
			for i := 0; i < 8; i += 2 {
				if err := c.SetReplication(fmt.Sprintf("/data/f%02d", i), repl); err != nil {
					t.Fatal(err)
				}
			}
			checkReplQueue(t, d, fmt.Sprintf("after setrep %d", repl))
			stepChecked(t, d, d.Engine.Now()+20*time.Second)
		}
		if rep, err := d.Fsck(); err != nil || rep.UnderReplicated+rep.OverReplicated > 0 {
			t.Fatalf("setrep did not converge: %v\n%v", err, rep)
		}
	})

	t.Run("decommission+balance", func(t *testing.T) {
		d := newDFS(t, 6, 1, hdfs.Config{
			BlockSize: 2 << 10, Replication: 3,
			HeartbeatInterval: time.Second, HeartbeatExpiry: 5 * time.Second,
			ReplMonitorInterval: 2 * time.Second,
		})
		// Writes from node 0 put a replica of every block there, so it is
		// the fullest node once it has drained.
		w := d.Client(0)
		for i := 0; i < 6; i++ {
			if err := vfs.WriteFile(w, fmt.Sprintf("/d/f%d", i), make([]byte, 8<<10)); err != nil {
				t.Fatal(err)
			}
		}
		stepChecked(t, d, d.Engine.Now()+5*time.Second)
		if err := d.NN.StartDecommission(0); err != nil {
			t.Fatal(err)
		}
		checkReplQueue(t, d, "after StartDecommission")
		deadline := d.Engine.Now() + 5*time.Minute
		for !d.NN.DecommissionComplete(0) {
			if d.Engine.Now() > deadline {
				t.Fatal("decommission never completed")
			}
			stepChecked(t, d, d.Engine.Now()+time.Second)
		}
		stepChecked(t, d, d.Engine.Now()+2*d.NN.Config().ReplMonitorInterval)
		if n := d.NN.ReplQueueLen(); n != 0 {
			t.Fatalf("%d blocks still queued after the drain", n)
		}
		// Moving a replica off the draining node adds a counted replica:
		// the block is now over target and must be in the queue.
		moves, err := d.Balance(0.05)
		if err != nil {
			t.Fatal(err)
		}
		if moves == 0 {
			t.Fatal("balancer moved nothing")
		}
		checkReplQueue(t, d, "after Balance")
		stepChecked(t, d, d.Engine.Now()+time.Minute)
	})

	for _, restart := range []string{"Restart", "RestartFromDisk"} {
		t.Run(restart, func(t *testing.T) {
			d := newRetryDFS(t, hdfs.Config{
				BlockSize: 1 << 10, Replication: 3,
				HeartbeatInterval: time.Second, HeartbeatExpiry: 5 * time.Second,
				ReplMonitorInterval: 2 * time.Second,
			})
			c := d.Client(0)
			for i := 0; i < 4; i++ {
				if err := vfs.WriteFile(c, fmt.Sprintf("/r/f%d", i), make([]byte, 3<<10)); err != nil {
					t.Fatal(err)
				}
			}
			d.DataNode(1).Kill()
			stepChecked(t, d, d.Engine.Now()+7*time.Second)
			restartNameNode(t, d, restart)
			checkReplQueue(t, d, "after "+restart)
			d.DataNode(1).Start()
			stepChecked(t, d, d.Engine.Now()+time.Minute)
			if rep, err := d.Fsck(); err != nil || !rep.Healthy() || rep.UnderReplicated > 0 {
				t.Fatalf("not healed after %s: %v\n%v", restart, err, rep)
			}
		})
	}
}

// newRetryDFS builds a 4-node cluster that journals its namespace, so
// both kinds of NameNode restart are available.
func newRetryDFS(t *testing.T, cfg hdfs.Config) *hdfs.MiniDFS {
	t.Helper()
	eng := sim.NewEngine()
	topo := cluster.NewTopology(cluster.PaperNodeConfig(4, 1))
	d, err := hdfs.NewMiniDFS(eng, topo, hdfs.Options{Seed: 5, Config: cfg, MetadataFS: vfs.NewMemFS()})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func restartNameNode(t *testing.T, d *hdfs.MiniDFS, how string) {
	t.Helper()
	switch how {
	case "Restart":
		d.NN.Restart()
	case "RestartFromDisk":
		if err := d.NN.RestartFromDisk(); err != nil {
			t.Fatal(err)
		}
	default:
		t.Fatalf("unknown restart %q", how)
	}
}

// TestRestartForgetsRetryBackoff: retry backoffs are the old NameNode's
// in-memory state, so neither a warm nor a cold restart may keep a block
// waiting on one. The block here backs off because its only eligible
// target is down; that target returns before the restart.
func TestRestartForgetsRetryBackoff(t *testing.T) {
	for _, restart := range []string{"Restart", "RestartFromDisk"} {
		t.Run(restart, func(t *testing.T) {
			d := newRetryDFS(t, hdfs.Config{
				BlockSize: 1 << 10, Replication: 3,
				HeartbeatInterval: time.Second, HeartbeatExpiry: 5 * time.Second,
				ReplMonitorInterval: 2 * time.Second, ReplRetryBackoff: 10 * time.Minute,
			})
			if err := vfs.WriteFile(d.Client(0), "/f", make([]byte, 500)); err != nil {
				t.Fatal(err)
			}
			locs, err := d.NN.BlockLocations("/f")
			if err != nil || len(locs) != 1 || len(locs[0].Nodes) != 3 {
				t.Fatalf("want one block on 3 nodes, got %v (%v)", locs, err)
			}
			held := map[cluster.NodeID]bool{}
			for _, id := range locs[0].Nodes {
				held[id] = true
			}
			var spare cluster.NodeID = -1
			for _, dn := range d.DataNodes() {
				if !held[dn.ID()] {
					spare = dn.ID()
				}
			}
			d.DataNode(spare).Kill()
			d.DataNode(locs[0].Nodes[2]).Kill()
			d.Engine.Advance(20 * time.Second)
			d.DataNode(spare).Start()
			d.Engine.Advance(5 * time.Second)
			if n := d.NN.ReplicationsScheduled(); n != 0 {
				t.Fatalf("%d copies scheduled during the backoff", n)
			}
			restartNameNode(t, d, restart)
			d.Engine.Advance(2 * time.Minute)
			if n := d.NN.ReplicationsScheduled(); n != 1 {
				t.Fatalf("after %s: %d copies scheduled, want 1", restart, n)
			}
		})
	}
}

// TestDeleteForgetsMonitorState: a deleted block takes its retry backoff
// and its queue entry with it.
func TestDeleteForgetsMonitorState(t *testing.T) {
	d := newRetryDFS(t, hdfs.Config{
		BlockSize: 1 << 10, Replication: 4,
		HeartbeatInterval: time.Second, HeartbeatExpiry: 5 * time.Second,
		ReplMonitorInterval: 2 * time.Second,
	})
	c := d.Client(0)
	if err := vfs.WriteFile(c, "/f", make([]byte, 3<<10)); err != nil {
		t.Fatal(err)
	}
	// Four replicas wanted, three nodes left: every block backs off.
	d.DataNode(3).Kill()
	d.Engine.Advance(10 * time.Second)
	if d.NN.ReplQueueLen() != 3 || d.NN.ReplRetryLen() != 3 {
		t.Fatalf("want 3 blocks queued and backing off, got %d queued, %d backing off",
			d.NN.ReplQueueLen(), d.NN.ReplRetryLen())
	}
	if err := c.Remove("/f", false); err != nil {
		t.Fatal(err)
	}
	if d.NN.ReplQueueLen() != 0 || d.NN.ReplRetryLen() != 0 {
		t.Fatalf("after delete: %d queued, %d backing off", d.NN.ReplQueueLen(), d.NN.ReplRetryLen())
	}
}

// TestReplicationMonitorIdleAllocatesNothing pins the monitor's cost when
// nothing changed: a pass over a large, settled namespace touches no block
// and allocates nothing.
func TestReplicationMonitorIdleAllocatesNothing(t *testing.T) {
	d := settledDFS(t, 10_000)
	if rep, err := d.Fsck(); err != nil || rep.TotalBlocks < 10_000 || rep.UnderReplicated > 0 {
		t.Fatalf("want >= 10000 settled blocks: %v\n%v", err, rep)
	}
	if n := d.NN.ReplQueueLen(); n != 0 {
		t.Fatalf("%d blocks still queued on a settled cluster", n)
	}
	if allocs := testing.AllocsPerRun(100, d.NN.ReplicationMonitorPass); allocs != 0 {
		t.Fatalf("idle monitor pass allocates %v times", allocs)
	}
}

// settledDFS stages at least blocks fully replicated blocks and lets a
// monitor pass see them.
func settledDFS(tb testing.TB, blocks int) *hdfs.MiniDFS {
	tb.Helper()
	eng := sim.NewEngine()
	topo := cluster.NewTopology(cluster.PaperNodeConfig(8, 2))
	d, err := hdfs.NewMiniDFS(eng, topo, hdfs.Options{Seed: 1, Config: hdfs.Config{BlockSize: 256, Replication: 3}})
	if err != nil {
		tb.Fatal(err)
	}
	c := d.Client(hdfs.GatewayNode)
	const perFile = 1000
	for i := 0; i*perFile < blocks; i++ {
		if err := vfs.WriteFile(c, fmt.Sprintf("/settled/f%03d", i), make([]byte, perFile*256)); err != nil {
			tb.Fatal(err)
		}
	}
	d.Engine.Advance(d.NN.Config().ReplMonitorInterval)
	return d
}
