// Command perfbench measures the host cost of the minihadoop stack: how
// much real time, memory and CPU the simulator spends on three workloads
// students drove it with — the WordCount lab, a whole class submitting
// assignments on lab day, and the serving lab. See RATIONALE.md.
//
// Usage (from the repository root, after building):
//
//	perfbench --workload wordcount|lab-day|serving --seed N --seconds S --trace 0|1
//
// The command re-executes itself once per repetition, so every
// repetition is a fresh process, and prints one JSON result as its last
// line of output. With --trace 0 it reports the end-to-end metrics; with
// --trace 1 it alternates untraced and traced repetitions and reports
// the per-layer metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"syscall"
	"time"
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*harness, sizes) error{
	"wordcount": runWordcount,
	"lab-day":   runLabDay,
	"serving":   runServing,
}

// metric is one reported metric: its name and unit.
type metric struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run, medians over repetitions.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"input_mb_per_s", "MB/s"},
	{"ops_per_s", "1/s"},
	{"op_p50_us", "us"},
	{"op_p99_us", "us"},
	{"alloc_mb", "MB"},
	{"allocs", "count"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run, medians over its traced
// repetitions. Every workload reports every one; a layer a workload does
// not load reports 0 for its shares and counts.
var perLayer = []metric{
	{"bench.run_s", "s"},
	{"bench.trace_overhead_frac", "frac"},
	{"sim.events", "count"},
	{"sim.step_s", "s"},
	{"sim.step_us_p50", "us"},
	{"sim.step_us_p99", "us"},
	{"sim.sim_s_per_host_s", "s/s"},
	{"datagen.gen_s", "s"},
	{"hdfs.put_frac", "frac"},
	{"hdfs.put_mb_per_s", "MB/s"},
	{"hdfs.read_frac", "frac"},
	{"hdfs.blocks", "count"},
	{"hdfs.pipeline_shrunk", "count"},
	{"hdfs.read_retries", "count"},
	{"mapreduce.user_frac", "frac"},
	{"mapreduce.emit_frac", "frac"},
	{"mapreduce.map_output_records", "count"},
	{"mapreduce.spilled_records", "count"},
	{"mapreduce.combine_ratio", "ratio"},
	{"mapreduce.shuffle_mb", "MB"},
	{"mrcluster.submit_frac", "frac"},
	{"mrcluster.schedule_passes", "count"},
	{"mrcluster.attempt_success_ratio", "ratio"},
	{"serial.mb_per_s", "MB/s"},
	{"history.read_frac", "frac"},
	{"history.persisted_mb", "MB"},
	{"trace.read_frac", "frac"},
	{"obs.spans", "count"},
	{"regionserver.get_frac", "frac"},
	{"regionserver.put_frac", "frac"},
	{"regionserver.cache_hit_rate", "ratio"},
	{"regionserver.retries", "count"},
	{"kvstore.flushes", "count"},
	{"kvstore.compactions", "count"},
	{"kvstore.wal_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.cpu_s", "s"},
}

// Repetition bounds: a run keeps repeating until --seconds have passed,
// but never stops short of minReps, and never starts a repetition after
// hardStop (so it ends well inside its time limit).
const (
	minReps  = 3
	hardStop = 120 * time.Second
)

func main() {
	workload := flag.String("workload", "", "workload: wordcount, lab-day or serving")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "how long to keep repeating the workload")
	traceFlag := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from traced repetitions")
	child := flag.Bool("child", false, "run the workload once in this process and print its repetition record")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || (*traceFlag != 0 && *traceFlag != 1) || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: want --workload wordcount|lab-day|serving --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if *child {
		h := newHarness(*workload, *seed, *traceFlag == 1)
		if err := run(h, fullSizes); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
			os.Exit(1)
		}
		if err := json.NewEncoder(os.Stdout).Encode(h.res); err != nil {
			os.Exit(1)
		}
		return
	}
	res, info, err := repeat(*workload, *seed, time.Duration(*seconds*float64(time.Second)), *traceFlag == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(info); err != nil {
		os.Exit(1)
	}
	if err := enc.Encode(res); err != nil {
		os.Exit(1)
	}
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runInfo is printed before the result: the context the numbers were
// measured in.
type runInfo struct {
	Workload   string    `json:"workload"`
	Seed       int64     `json:"seed"`
	GoMaxProcs int       `json:"gomaxprocs"`
	NProc      int       `json:"nproc"`
	GoVersion  string    `json:"go_version"`
	Reps       int       `json:"reps"`
	TracedReps int       `json:"traced_reps"`
	Digest     string    `json:"digest"`
	OpSamples  int       `json:"op_samples"`
	RunS       []float64 `json:"run_s"`
	Problems   []string  `json:"problems,omitempty"`
}

// repeat runs the workload in fresh child processes until the time is
// up: untraced repetitions, or, when traced, untraced/traced pairs.
func repeat(workload string, seed int64, d time.Duration, traced bool) (*result, *runInfo, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	start := time.Now()
	var plain, tr []rep
	var rss []float64
	for len(plain) < minReps || (time.Since(start) < d && time.Since(start) < hardStop) {
		r, maxRSS, err := spawn(exe, workload, seed, false)
		if err != nil {
			return nil, nil, err
		}
		plain, rss = append(plain, r), append(rss, maxRSS)
		if traced {
			r, _, err := spawn(exe, workload, seed, true)
			if err != nil {
				return nil, nil, err
			}
			tr = append(tr, r)
		}
	}
	return summarise(plain, tr, rss, traced)
}

// spawn runs one repetition in a fresh process and returns its record
// and the process's peak resident set in MB.
func spawn(exe, workload string, seed int64, traced bool) (rep, float64, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "-child", "-workload", workload, "-seed", strconv.FormatInt(seed, 10), "-trace", trace)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return rep{}, 0, fmt.Errorf("%s repetition: %w", workload, err)
	}
	var r rep
	if err := json.Unmarshal(out, &r); err != nil {
		return rep{}, 0, fmt.Errorf("%s repetition: bad record: %w", workload, err)
	}
	var maxRSS float64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		maxRSS = float64(ru.Maxrss) / 1024 // KiB on Linux
	}
	return r, maxRSS, nil
}

// summarise turns the repetitions of one run into the printed result.
// The run is correct only if every repetition passed its oracles and all
// of them, traced or not, produced the same simulation digest.
func summarise(plain, traced []rep, rss []float64, wantTraced bool) (*result, *runInfo, error) {
	if len(plain) == 0 {
		return nil, nil, errors.New("no repetitions")
	}
	info := &runInfo{
		Workload:   plain[0].Workload,
		Seed:       plain[0].Seed,
		GoMaxProcs: plain[0].GoMaxProcs,
		NProc:      runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Reps:       len(plain),
		TracedReps: len(traced),
		Digest:     plain[0].Digest,
		OpSamples:  plain[0].OpSamples,
	}
	res := &result{Correct: true, Metrics: map[string]metricJSON{}}
	for _, r := range append(slices.Clone(plain), traced...) {
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		info.Problems = append(info.Problems, r.Problems...)
		if r.Digest != info.Digest {
			res.Correct = false
			info.Problems = append(info.Problems, fmt.Sprintf("simulation digest %s (traced=%v) differs from %s", r.Digest, r.Traced, info.Digest))
		}
	}
	if res.Failed > 0 || res.Attempted == 0 {
		res.Correct = false
	}
	for _, r := range plain {
		info.RunS = append(info.RunS, r.RunS)
	}
	pick := func(reps []rep, f func(rep) float64) float64 {
		vs := make([]float64, len(reps))
		for i, r := range reps {
			vs[i] = f(r)
		}
		return median(vs)
	}
	set := func(m metric, v float64) { res.Metrics[m.name] = metricJSON{Value: v, Unit: m.unit} }
	if !wantTraced {
		values := map[string]float64{
			"setup_s":        pick(plain, func(r rep) float64 { return r.SetupS }),
			"input_mb_per_s": pick(plain, func(r rep) float64 { return r.InputMB / r.RunS }),
			"ops_per_s":      pick(plain, func(r rep) float64 { return float64(r.Ops) / r.RunS }),
			"op_p50_us":      pick(plain, func(r rep) float64 { return r.OpP50US }),
			"op_p99_us":      pick(plain, func(r rep) float64 { return r.OpP99US }),
			"alloc_mb":       pick(plain, func(r rep) float64 { return r.AllocMB }),
			"allocs":         pick(plain, func(r rep) float64 { return r.Allocs }),
			"peak_rss_mb":    median(rss),
		}
		for _, m := range endToEnd {
			set(m, values[m.name])
		}
		return res, info, nil
	}
	if len(traced) == 0 {
		return nil, nil, errors.New("no traced repetitions")
	}
	// The cost of tracing itself: traced minus untraced time, over
	// untraced time.
	overhead := pick(traced, func(r rep) float64 { return r.RunS })/pick(plain, func(r rep) float64 { return r.RunS }) - 1
	for _, m := range perLayer {
		if m.name == "bench.trace_overhead_frac" {
			set(m, overhead)
			continue
		}
		set(m, pick(traced, func(r rep) float64 { return r.Layers[m.name] }))
	}
	return res, info, nil
}

// median of vs (which it sorts).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	slices.Sort(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}
