package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"runtime"
	"syscall"
	"time"

	"repro/internal/hdfs"
	"repro/internal/history"
	"repro/internal/kvstore"
	"repro/internal/mapreduce"
	"repro/internal/mrcluster"
	"repro/internal/obs"
	"repro/internal/regionserver"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vfs"
)

// rep is one workload run in one fresh process: what a child process
// reports to the parent, as a single JSON line.
type rep struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Traced     bool    `json:"traced"`
	GoMaxProcs int     `json:"gomaxprocs"`
	SetupS     float64 `json:"setup_s"`
	RunS       float64 `json:"run_s"`
	CPUS       float64 `json:"cpu_s"`
	InputMB    float64 `json:"input_mb"`
	// Ops counts completed operations: MapReduce jobs, or serving
	// requests. OpP50US/OpP99US are host-time quantiles over OpSamples
	// waits: one per request, or one for a whole batch workload.
	Ops       int     `json:"ops"`
	OpSamples int     `json:"op_samples"`
	OpP50US   float64 `json:"op_p50_us"`
	OpP99US   float64 `json:"op_p99_us"`
	AllocMB   float64 `json:"alloc_mb"`
	Allocs    float64 `json:"allocs"`
	// Attempted and Failed count checked operations: a job or request
	// that errored or whose result disagreed with the oracle fails.
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
	// Digest fingerprints the simulated outcome; it must not depend on
	// the host, on tracing, or on anything but the seed.
	Digest string             `json:"digest"`
	Layers map[string]float64 `json:"layers,omitempty"`
}

// sizes scales a workload. fullSizes is what the benchmark runs; the
// tests run tinySizes through the same code.
type sizes struct {
	wcLines int

	labStudents, labTextLines, labAirRows, labMovies, labRatings int

	rsRows, rsOps int
}

var fullSizes = sizes{
	wcLines:      400_000,
	labStudents:  200,
	labTextLines: 500,
	labAirRows:   500,
	labMovies:    60,
	labRatings:   500,
	rsRows:       20_000,
	rsOps:        250_000,
}

var tinySizes = sizes{
	wcLines:      3_000,
	labStudents:  6,
	labTextLines: 60,
	labAirRows:   60,
	labMovies:    20,
	labRatings:   80,
	rsRows:       400,
	rsOps:        3_000,
}

// harness holds one workload run: the probe, the step loop, the
// measured-phase bookkeeping and the oracle tally.
type harness struct {
	res rep
	p   probe
	// corrupt makes the workload tamper with one expectation, so the
	// oracle must report a failure (the benchmark's negative test).
	corrupt bool

	eng     *sim.Engine
	reached bool
	mark    func()

	setupStart time.Time
	genTime    time.Duration
	opLat      []float32 // host nanoseconds per wait

	runStart time.Time
	run      time.Duration
	mem0     runtime.MemStats
	cpu0     time.Duration
	events0  uint64
	simT0    sim.Time

	digest hash.Hash
	mr     jobCounters
}

func newHarness(workload string, seed int64, traced bool) *harness {
	h := &harness{
		res:        rep{Workload: workload, Seed: seed, Traced: traced, GoMaxProcs: runtime.GOMAXPROCS(0)},
		setupStart: time.Now(),
		digest:     sha256.New(),
	}
	h.p = newProbe(traced)
	h.mark = func() { h.reached = true }
	return h
}

// gen runs an input generator, charging its host time to datagen.
func (h *harness) gen(f func() error) error {
	t0 := time.Now()
	err := f()
	h.genTime += time.Since(t0)
	return err
}

// beginMeasure ends set-up and starts the measured phase. Set-up garbage
// is collected first so it is not charged to the phase.
func (h *harness) beginMeasure(eng *sim.Engine) {
	h.res.SetupS = time.Since(h.setupStart).Seconds()
	h.eng = eng
	runtime.GC()
	runtime.ReadMemStats(&h.mem0)
	h.cpu0 = cpuTime()
	h.events0, h.simT0 = eng.Processed, eng.Now()
	h.runStart = time.Now()
}

// endMeasure closes the measured phase and records the end-to-end
// numbers and the layer metrics every workload shares.
func (h *harness) endMeasure() {
	h.run = time.Since(h.runStart)
	cpu := cpuTime() - h.cpu0
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	h.res.RunS = h.run.Seconds()
	h.res.CPUS = cpu.Seconds()
	h.res.AllocMB = float64(m.TotalAlloc-h.mem0.TotalAlloc) / mb
	h.res.Allocs = float64(m.Mallocs - h.mem0.Mallocs)
	if len(h.opLat) == 0 {
		// A batch workload: the caller waits on the batch as a whole.
		h.opLat = append(h.opLat, float32(h.run))
	}
	h.res.OpSamples = len(h.opLat)
	h.res.OpP50US = windowQuantile(h.opLat, 0.50) / 1e3
	h.res.OpP99US = windowQuantile(h.opLat, 0.99) / 1e3
	if !h.p.on {
		return
	}
	steps, bias := h.p.stepNS, float64(h.p.bias)
	h.layer("bench.run_s", h.res.RunS)
	h.layer("sim.events", float64(h.eng.Processed-h.events0))
	h.layer("sim.step_s", max(h.p.stepTime-time.Duration(len(steps))*h.p.bias, 0).Seconds())
	h.layer("sim.step_us_p50", max(windowQuantile(steps, 0.50)-bias, 0)/1e3)
	h.layer("sim.step_us_p99", max(windowQuantile(steps, 0.99)-bias, 0)/1e3)
	h.layer("sim.sim_s_per_host_s", time.Duration(h.eng.Now()-h.simT0).Seconds()/h.res.RunS)
	h.layer("datagen.gen_s", h.genTime.Seconds())
	h.layer("runtime.gc_cycles", float64(m.NumGC-h.mem0.NumGC))
	h.layer("runtime.cpu_s", h.res.CPUS)
	h.layer("hdfs.put_frac", h.frac(h.p.hdfsPut))
	h.layer("hdfs.read_frac", h.frac(h.p.hdfsRead))
	h.layer("hdfs.put_mb_per_s", ratio(float64(h.p.hdfsPutBytes)/mb, h.p.hdfsPut.Seconds()))
	h.layer("mapreduce.user_frac", h.frac(h.p.userTime()))
	h.layer("mapreduce.emit_frac", h.frac(h.p.emitTime()))
	h.layer("mrcluster.submit_frac", h.frac(h.p.submit))
	h.layer("history.read_frac", h.frac(h.p.histRead))
	h.layer("trace.read_frac", h.frac(h.p.traceRead))
	h.layer("regionserver.get_frac", h.frac(h.p.rsGet))
	h.layer("regionserver.put_frac", h.frac(h.p.rsPut))
}

// frac is d as a share of the measured phase.
func (h *harness) frac(d time.Duration) float64 { return d.Seconds() / h.res.RunS }

// layer records a per-layer metric (traced runs only).
func (h *harness) layer(name string, v float64) {
	if !h.p.on {
		return
	}
	if h.res.Layers == nil {
		h.res.Layers = map[string]float64{}
	}
	h.res.Layers[name] = v
}

// op tallies one checked operation.
func (h *harness) op(ok bool, format string, args ...any) {
	h.res.Attempted++
	if ok {
		return
	}
	h.res.Failed++
	if len(h.res.Problems) < 8 {
		h.res.Problems = append(h.res.Problems, fmt.Sprintf(format, args...))
	}
}

// step executes one engine event, timing it in the traced run.
func (h *harness) step() bool {
	if !h.p.on {
		return h.eng.Step()
	}
	t0 := time.Now()
	ok := h.eng.Step()
	d := time.Since(t0)
	h.p.stepTime += d
	h.p.stepNS = append(h.p.stepNS, float32(d))
	return ok
}

// runUntil steps the engine until virtual time t: a marker event at t
// fires after every event already queued for t, so per-Step host time
// stays observable (RunUntil would hide the individual steps).
func (h *harness) runUntil(t sim.Time) {
	h.reached = false
	h.eng.Schedule(t, h.mark)
	for !h.reached {
		h.step()
	}
}

// put stages one file through an HDFS client: Mkdir, Create, Write,
// Close.
func (h *harness) put(fs vfs.FileSystem, path string, data []byte) error {
	t0 := h.p.start()
	err := writeFile(fs, path, data)
	h.p.stop(t0, &h.p.hdfsPut)
	h.p.hdfsPutBytes += int64(len(data))
	h.res.InputMB += float64(len(data)) / mb
	return err
}

func writeFile(fs vfs.FileSystem, path string, data []byte) error {
	dir, _ := vfs.Split(path)
	if err := fs.Mkdir(dir); err != nil {
		return err
	}
	w, err := fs.Create(path)
	if err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}

// readOutput reads a job's part files back, in name order.
func (h *harness) readOutput(fs vfs.FileSystem, dir string) ([]byte, error) {
	t0 := h.p.start()
	defer h.p.stop(t0, &h.p.hdfsRead)
	infos, err := fs.List(dir)
	if err != nil {
		return nil, err
	}
	var out []byte
	for _, fi := range infos {
		if fi.IsDir || fi.Name() == "_SUCCESS" {
			continue
		}
		data, err := vfs.ReadFile(fs, fi.Path)
		if err != nil {
			return nil, err
		}
		out = append(out, data...)
	}
	return out, nil
}

// analyseJob reads a finished job's persisted history and trace back
// from HDFS and rebuilds both critical paths; each must be non-empty.
func (h *harness) analyseJob(fs vfs.FileSystem, jobID string) error {
	t0 := h.p.start()
	events, err := vfs.ReadFile(fs, history.EventsPath(jobID))
	if err == nil {
		err = checkHistory(events)
	}
	h.p.stop(t0, &h.p.histRead)
	if err != nil {
		return fmt.Errorf("history of %s: %w", jobID, err)
	}
	t0 = h.p.start()
	spans, err := vfs.ReadFile(fs, trace.Path(jobID))
	if err == nil {
		err = checkTrace(spans)
	}
	h.p.stop(t0, &h.p.traceRead)
	if err != nil {
		return fmt.Errorf("trace of %s: %w", jobID, err)
	}
	h.fingerprint("history "+jobID, events)
	h.fingerprint("trace "+jobID, spans)
	return nil
}

func checkHistory(data []byte) error {
	events, err := history.Parse(data)
	if err != nil {
		return err
	}
	rep, err := history.BuildJobReport(events)
	if err != nil {
		return err
	}
	if len(rep.CriticalPath()) == 0 {
		return fmt.Errorf("empty critical path")
	}
	return nil
}

func checkTrace(data []byte) error {
	spans, err := trace.Parse(data)
	if err != nil {
		return err
	}
	roots := trace.Build(spans)
	if len(roots) == 0 || len(trace.CriticalPath(roots[0])) == 0 {
		return fmt.Errorf("empty critical path")
	}
	return nil
}

// fingerprint folds a labelled value into the simulation digest.
func (h *harness) fingerprint(label string, v any) {
	if b, ok := v.([]byte); ok {
		fmt.Fprintf(h.digest, "%s %d\n", label, len(b))
		h.digest.Write(b)
		return
	}
	fmt.Fprintf(h.digest, "%s=%v\n", label, v)
}

// seal folds the engine state and every counter, gauge and histogram of
// the registry into the digest and stores it in the result.
func (h *harness) seal(reg *obs.Registry) {
	h.fingerprint("processed", h.eng.Processed)
	h.fingerprint("now", int64(h.eng.Now()))
	snap := reg.Snapshot()
	for _, c := range snap.Counters {
		h.fingerprint(c.Name, c.Value)
	}
	for _, g := range snap.Gauges {
		h.fingerprint(g.Name, g.Value)
	}
	for _, hs := range snap.Histograms {
		h.fingerprint(hs.Name, fmt.Sprint(hs.Count, hs.Sum))
	}
	h.fingerprint("spans", len(snap.Spans))
	h.res.Digest = hex.EncodeToString(h.digest.Sum(nil))

	ctr := func(name string) float64 { return float64(reg.CounterValue(name)) }
	h.layer("obs.spans", float64(len(snap.Spans)))
	h.layer("hdfs.blocks", ctr(hdfs.MetricNNBlocksAllocated))
	h.layer("hdfs.pipeline_shrunk", ctr(hdfs.MetricClientPipelineShrunk))
	h.layer("hdfs.read_retries", ctr(hdfs.MetricClientReadRetries))
	h.layer("history.persisted_mb", ctr(history.MetricBytesPersisted)/mb)
	h.layer("mrcluster.schedule_passes", ctr(mrcluster.MetricJTSchedulePasses))
	launched := ctr(mrcluster.MetricJTMapsLaunched) + ctr(mrcluster.MetricJTReducesLaunched)
	lost := ctr(mrcluster.MetricJTMapsFailed) + ctr(mrcluster.MetricJTReducesFailed) + ctr(mrcluster.MetricJTAttemptsKilled)
	h.layer("mrcluster.attempt_success_ratio", ratio(launched-lost, launched))
	h.layer("mapreduce.map_output_records", float64(h.mr.mapOut))
	h.layer("mapreduce.spilled_records", float64(h.mr.spilled))
	h.layer("mapreduce.combine_ratio", ratio(float64(h.mr.combineOut), float64(h.mr.combineIn)))
	h.layer("mapreduce.shuffle_mb", float64(h.mr.shuffle)/mb)
	hits := ctr(regionserver.MetricCacheHits)
	h.layer("regionserver.cache_hit_rate", ratio(hits, hits+ctr(regionserver.MetricCacheMisses)))
	h.layer("regionserver.retries", ctr(regionserver.MetricRetries))
	h.layer("kvstore.flushes", ctr(kvstore.MetricFlushes))
	h.layer("kvstore.compactions", ctr(kvstore.MetricCompactions))
	h.layer("kvstore.wal_mb", ctr(kvstore.MetricWALBytes)/mb)
}

// jobCounters sums the framework counters of finished jobs.
type jobCounters struct {
	mapOut, spilled, combineIn, combineOut, shuffle int64
}

func (c *jobCounters) add(r *mrcluster.Report) {
	c.mapOut += r.Counters.Get(mapreduce.CtrMapOutputRecords)
	c.spilled += r.Counters.Get(mapreduce.CtrSpilledRecords)
	c.combineIn += r.Counters.Get(mapreduce.CtrCombineInputRecords)
	c.combineOut += r.Counters.Get(mapreduce.CtrCombineOutputRecords)
	c.shuffle += r.Counters.Get(mapreduce.CtrShuffleBytes)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

const mb = 1 << 20
