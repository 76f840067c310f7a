package hdfs_test

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/hdfs"
	"repro/internal/sim"
	"repro/internal/vfs"
)

func benchDFS(b *testing.B, nodes int, cfg hdfs.Config) *hdfs.MiniDFS {
	b.Helper()
	eng := sim.NewEngine()
	topo := cluster.NewTopology(cluster.PaperNodeConfig(nodes, 1))
	d, err := hdfs.NewMiniDFS(eng, topo, hdfs.Options{Config: cfg, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return d
}

func BenchmarkPipelineWrite(b *testing.B) {
	d := benchDFS(b, 8, hdfs.Config{BlockSize: 1 << 20, Replication: 3})
	c := d.Client(hdfs.GatewayNode)
	data := make([]byte, 4<<20)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := vfs.WriteFile(c, fmt.Sprintf("/bench/f%d", i), data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLocalRead(b *testing.B) {
	d := benchDFS(b, 4, hdfs.Config{BlockSize: 1 << 20, Replication: 3})
	w := d.Client(0)
	data := make([]byte, 4<<20)
	if err := vfs.WriteFile(w, "/f", data); err != nil {
		b.Fatal(err)
	}
	c := d.Client(0)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vfs.ReadFile(c, "/f"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFsckManyFiles(b *testing.B) {
	d := benchDFS(b, 8, hdfs.Config{BlockSize: 4 << 10, Replication: 3})
	c := d.Client(hdfs.GatewayNode)
	for i := 0; i < 200; i++ {
		if err := vfs.WriteFile(c, fmt.Sprintf("/data/f%03d", i), make([]byte, 10<<10)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := d.Fsck()
		if err != nil || !rep.Healthy() {
			b.Fatalf("fsck: %v", err)
		}
	}
}

func BenchmarkBlockLocations(b *testing.B) {
	d := benchDFS(b, 8, hdfs.Config{BlockSize: 64 << 10, Replication: 3})
	c := d.Client(hdfs.GatewayNode)
	if err := vfs.WriteFile(c, "/f", make([]byte, 4<<20)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.BlockLocations("/f"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplicationMonitorIdle times one replication-monitor pass over
// 10,000 settled blocks: with nothing changed, the pass has nothing to do.
func BenchmarkReplicationMonitorIdle(b *testing.B) {
	d := settledDFS(b, 10_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.NN.ReplicationMonitorPass()
	}
}
