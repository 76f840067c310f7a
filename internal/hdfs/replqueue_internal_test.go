package hdfs

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// TestReplQueueMarksUnforcedOrders covers marking sites the engine-stepped
// scenarios in replqueue_test.go reach only through event orders they
// cannot force:
//   - a replica the NameNode learns of while its holder counts as dead,
//     which starts counting when the holder revives;
//   - block reports that, on their own, change a live holder's replicas;
//   - a re-replication copy that lands after its block settled.
//
// Each case starts from a settled single-block file with an empty queue.
func TestReplQueueMarksUnforcedOrders(t *testing.T) {
	// reportWhileDead mutes node 0 until it is declared dead and its
	// block is re-replicated, then delivers a block report from it that
	// the NameNode takes while still counting it dead. Nothing counted
	// changes, so the monitor settles the block again.
	reportWhileDead := func(t *testing.T, d *MiniDFS) {
		d.DataNode(0).DropHeartbeatsFor(time.Hour)
		d.Engine.Advance(30 * time.Second)
		d.NN.blockReport(0, d.DataNode(0).BlockIDs())
		d.NN.replicationMonitor()
		assertQueueEmpty(t, d)
	}
	cases := []struct {
		name string
		run  func(t *testing.T, d *MiniDFS, bm *blockMeta)
	}{
		{"revive by heartbeat", func(t *testing.T, d *MiniDFS, _ *blockMeta) {
			reportWhileDead(t, d)
			d.NN.heartbeat(0)
		}},
		{"revive by registration", func(t *testing.T, d *MiniDFS, _ *blockMeta) {
			reportWhileDead(t, d)
			d.NN.register(d.DataNode(0))
		}},
		{"report adds a replica", func(t *testing.T, d *MiniDFS, bm *blockMeta) {
			// The NameNode has lost track of node 0's copy and wants only
			// the two it knows of; node 0's next report brings it back.
			delete(bm.replicas, 0)
			bm.expected = 2
			checkOracle(t, d, "setup")
			d.NN.blockReport(0, d.DataNode(0).BlockIDs())
		}},
		{"report drops a replica", func(t *testing.T, d *MiniDFS, bm *blockMeta) {
			// Node 0 silently loses its copy; its next report says so.
			d.DataNode(0).deleteBlock(bm.id)
			d.NN.blockReport(0, d.DataNode(0).BlockIDs())
		}},
		{"copy lands after the block settled", func(t *testing.T, d *MiniDFS, bm *blockMeta) {
			// A fourth replica is asked for, then cancelled while the copy
			// is in flight: the block leaves the queue on target, and the
			// landing copy puts it over.
			if err := d.NN.SetReplication("/f", 4); err != nil {
				t.Fatal(err)
			}
			d.NN.replicationMonitor()
			if !d.NN.pendingRepl[bm.id] {
				t.Fatal("no copy in flight")
			}
			if err := d.NN.SetReplication("/f", 3); err != nil {
				t.Fatal(err)
			}
			d.NN.replicationMonitor()
			assertQueueEmpty(t, d)
			d.Engine.Advance(500 * time.Millisecond)
			if d.NN.m.replicationsCompleted.Value() != 1 {
				t.Fatal("copy did not land")
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, bm := settledOneBlock(t)
			tc.run(t, d, bm)
			checkOracle(t, d, tc.name)
		})
	}
}

// settledOneBlock writes one single-block file from node 0 (so node 0
// holds a replica) and lets the monitor settle it.
func settledOneBlock(t *testing.T) (*MiniDFS, *blockMeta) {
	t.Helper()
	eng := sim.NewEngine()
	topo := cluster.NewTopology(cluster.PaperNodeConfig(6, 1))
	d, err := NewMiniDFS(eng, topo, Options{Seed: 3, Config: Config{
		BlockSize: 1 << 10, Replication: 3,
		HeartbeatInterval: time.Second, HeartbeatExpiry: 5 * time.Second,
		ReplMonitorInterval: 2 * time.Second,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(d.Client(0), "/f", make([]byte, 500)); err != nil {
		t.Fatal(err)
	}
	d.Engine.Advance(3 * time.Second)
	assertQueueEmpty(t, d)
	locs, err := d.NN.BlockLocations("/f")
	if err != nil || len(locs) != 1 || locs[0].Nodes[0] != 0 {
		t.Fatalf("want one block with a replica on node 0, got %v (%v)", locs, err)
	}
	return d, d.NN.blocks[locs[0].Block]
}

func assertQueueEmpty(t *testing.T, d *MiniDFS) {
	t.Helper()
	if n := d.NN.ReplQueueLen(); n != 0 {
		t.Fatalf("%d blocks queued, want a settled cluster", n)
	}
}

func checkOracle(t *testing.T, d *MiniDFS, when string) {
	t.Helper()
	if missed := d.NN.UnqueuedUnsettled(); len(missed) > 0 {
		t.Fatalf("%s: blocks %v need the replication monitor but are not queued", when, missed)
	}
}
