// Command mrrun runs any registered course job either standalone (the
// first assignment's no-HDFS mode, against the host filesystem) or on a
// simulated HDFS cluster (the second assignment's mode), printing the
// job report students were asked to study.
//
// Usage:
//
//	mrrun -list
//	mrrun -job wordcount -in ./data -out ./out
//	mrrun -job top-album -mode cluster -in ./ym/ratings.tsv -side ./ym/songs.tsv -out ./out
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/hdfs"
	"repro/internal/history"
	"repro/internal/jobs"
	"repro/internal/mrcluster"
	"repro/internal/obs"
	"repro/internal/serial"
	"repro/internal/vfs"
	"repro/internal/yarn"
)

func main() {
	list := flag.Bool("list", false, "list registered jobs")
	jobName := flag.String("job", "", "job to run (see -list)")
	mode := flag.String("mode", "standalone", "standalone | cluster")
	in := flag.String("in", "", "input file or directory (host path)")
	out := flag.String("out", "", "output directory (host path; must not exist)")
	side := flag.String("side", "", "side file for join jobs (host path)")
	nodes := flag.Int("nodes", 8, "cluster mode: node count")
	blockSize := flag.Int64("block", 1<<20, "cluster mode: HDFS block size")
	seed := flag.Int64("seed", 1, "deterministic seed")
	metrics := flag.String("metrics", "", "write the obs metrics/spans snapshot to this JSON file")
	histDir := flag.String("history", "", "cluster mode: export the /history job-history tree to this host directory (read it with mrhistory)")
	slowNode := flag.Int("slow-node", -1, "cluster mode: make this node a straggler (task durations multiplied by -slow-factor)")
	slowDisk := flag.Int("slow-disk", -1, "cluster mode: make this node's DISK a straggler (block read/write times multiplied by -slow-factor; find it with mrhistory -analyze)")
	slowFactor := flag.Float64("slow-factor", 8, "cluster mode: straggler slowdown factor for -slow-node / -slow-disk")
	speculative := flag.Bool("speculative", false, "cluster mode: enable speculative execution of straggling tasks")
	yarnMode := flag.Bool("yarn", false, "cluster mode: run the JobTracker as a YARN application (containers negotiated from the ResourceManager)")
	queue := flag.String("queue", "", "cluster mode with -yarn: capacity queue to submit the job to")
	user := flag.String("user", "", "cluster mode with -yarn: submitting user (for capacity-queue user limits)")
	flag.Parse()

	if *list {
		for _, s := range jobs.Registry() {
			needs := ""
			if s.NeedsSide {
				needs = " (needs -side)"
			}
			fmt.Printf("%-26s %s%s\n", s.Name, s.Description, needs)
		}
		return
	}
	if *jobName == "" || *in == "" || *out == "" {
		flag.Usage()
		os.Exit(2)
	}
	spec, ok := jobs.Lookup(*jobName)
	if !ok {
		fatal(fmt.Errorf("unknown job %q (use -list)", *jobName))
	}

	host, err := vfs.NewOsFS("/")
	if err != nil {
		fatal(err)
	}
	inAbs, outAbs := mustAbs(*in), mustAbs(*out)
	sideAbs := ""
	if *side != "" {
		sideAbs = mustAbs(*side)
	}

	switch *mode {
	case "standalone":
		job, err := spec.Build(jobs.Params{Input: inAbs, Output: outAbs, Side: sideAbs})
		if err != nil {
			fatal(err)
		}
		reg := obs.NewRegistry()
		rep, err := (&serial.Runner{FS: host, Parallelism: 4, Obs: reg}).Run(job)
		if err != nil {
			fatal(err)
		}
		fmt.Print(rep)
		fmt.Printf("Output written to %s\n", outAbs)
		writeMetrics(reg, *metrics)
	case "cluster":
		mrCfg := mrcluster.Config{Speculative: *speculative}
		if *slowNode >= 0 {
			mrCfg.NodeSlowdown = map[cluster.NodeID]float64{cluster.NodeID(*slowNode): *slowFactor}
		}
		copts := core.Options{
			Nodes: *nodes,
			Seed:  *seed,
			HDFS:  hdfs.Config{BlockSize: *blockSize},
			MR:    mrCfg,
		}
		if *yarnMode {
			copts.YARN = &yarn.CapacityOptions{}
		} else if *queue != "" || *user != "" {
			fatal(fmt.Errorf("-queue/-user require -yarn"))
		}
		c, err := core.New(copts)
		if err != nil {
			fatal(err)
		}
		if *slowDisk >= 0 {
			dn := c.DFS.DataNode(cluster.NodeID(*slowDisk))
			if dn == nil {
				fatal(fmt.Errorf("-slow-disk %d: no such node (cluster has %d)", *slowDisk, *nodes))
			}
			dn.SetDiskSlowdown(*slowFactor)
		}
		// Stage inputs into HDFS, run, export results back — the myHadoop
		// submission-script flow.
		if _, err := vfs.CopyTree(host, inAbs, c.FS(), "/in"); err != nil {
			fatal(fmt.Errorf("staging input: %w", err))
		}
		p := jobs.Params{Input: "/in", Output: "/out"}
		if sideAbs != "" {
			if _, err := vfs.CopyTree(host, sideAbs, c.FS(), "/side"+filepath.Ext(sideAbs)); err != nil {
				fatal(fmt.Errorf("staging side file: %w", err))
			}
			p.Side = "/side" + filepath.Ext(sideAbs)
		}
		job, err := spec.Build(p)
		if err != nil {
			fatal(err)
		}
		job.Queue, job.User = *queue, *user
		rep, err := c.Run(job)
		if err != nil {
			fatal(err)
		}
		fmt.Print(rep)
		if c.RM != nil {
			fmt.Printf("YARN: %d containers launched, %d preemptions, %.2f node-hours\n",
				c.RM.ContainersLaunched, c.RM.Preemptions(), c.RM.NodeHours())
		}
		if _, err := vfs.CopyTree(c.FS(), "/out", host, outAbs); err != nil {
			fatal(fmt.Errorf("exporting output: %w", err))
		}
		fmt.Printf("Output copied to local filesystem at %s\n", outAbs)
		if *histDir != "" {
			histAbs := mustAbs(*histDir)
			if _, err := vfs.CopyTree(c.FS(), history.Root, host, histAbs); err != nil {
				fatal(fmt.Errorf("exporting job history: %w", err))
			}
			fmt.Printf("Job history copied to %s (inspect with: go run ./cmd/mrhistory -dir %s -list)\n", histAbs, *histDir)
			fmt.Printf("Each job's trace export sits beside its events: go run ./cmd/mrhistory -dir %s -job <jobid> -analyze\n", *histDir)
		}
		writeMetrics(c.Obs, *metrics)
	default:
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}
}

// writeMetrics dumps the registry snapshot to path (no-op when empty).
func writeMetrics(reg *obs.Registry, path string) {
	if path == "" {
		return
	}
	data, err := reg.SnapshotJSON()
	if err == nil {
		err = os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		fatal(fmt.Errorf("writing metrics: %w", err))
	}
	fmt.Printf("Metrics snapshot written to %s\n", path)
}

func mustAbs(p string) string {
	abs, err := filepath.Abs(p)
	if err != nil {
		fatal(err)
	}
	return filepath.ToSlash(abs)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mrrun:", err)
	os.Exit(1)
}
