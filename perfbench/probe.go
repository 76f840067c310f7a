package main

import (
	"math"
	"slices"
	"time"

	"repro/internal/mapreduce"
)

// probe is the traced run's view of the layers: host time spent inside
// the calls the benchmark makes into each layer's public functions. It
// lives entirely in the benchmark; the program under test is not
// instrumented. A disabled probe (the untraced run) reads no clocks
// beyond the ones the end-to-end metrics need.
type probe struct {
	on bool

	// bias is what a timed interval reads when nothing runs inside it;
	// pair is the host time one start/stop pair costs its caller. Both
	// are measured when the probe starts, and subtracted where clock
	// reads are dense enough to matter (steps and user code).
	bias, pair time.Duration

	hdfsPut, hdfsRead   time.Duration
	hdfsPutBytes        int64
	submit              time.Duration
	histRead, traceRead time.Duration
	rsGet, rsPut        time.Duration

	// stepNS holds the host time of every Step the benchmark makes, in
	// nanoseconds (float32 keeps millions of samples small and exact to
	// far below clock resolution).
	stepNS   []float32
	stepTime time.Duration

	// User code. Every Map call is timed (mapAll), but the Emit calls
	// inside are timed only on a systematic 1-in-mapSample subset of
	// calls (mapTimed): a clock read around every one of millions of
	// Emit calls would double the cost it is measuring. The subset gives
	// the mapper's own time, which is steady from call to call, scaled up
	// by the call count; Emit gets the rest of mapAll, so its rare costly
	// calls (buffer growth) are all counted rather than sampled.
	// Combiner and reducer calls, and the Setup/Close hooks, are few and
	// are timed in full.
	mapCalls int64
	mapAll   time.Duration
	mapTimed userCalls
	rest     userCalls
}

// userCalls accumulates timed user-code calls and the Emit calls nested
// in them.
type userCalls struct {
	calls, emits int64
	total, emit  time.Duration
}

// mapSample is the Map-call sampling stride of the traced run.
const mapSample = 16

func newProbe(on bool) probe {
	p := probe{on: on}
	if on {
		p.calibrate()
	}
	return p
}

// calibrate measures the probe's own clock-read cost.
func (p *probe) calibrate() {
	samples := make([]float32, 20000)
	t := time.Now()
	for i := range samples {
		t0 := time.Now()
		samples[i] = float32(time.Since(t0))
	}
	p.pair = time.Since(t) / time.Duration(len(samples))
	p.bias = time.Duration(windowQuantile(samples, 0.5))
}

// start returns the time to pass to stop, or the zero time when the
// probe is off.
func (p *probe) start() time.Time {
	if !p.on {
		return time.Time{}
	}
	return time.Now()
}

// stop adds the time since t0 to *acc when the probe is on.
func (p *probe) stop(t0 time.Time, acc *time.Duration) {
	if p.on {
		*acc += time.Since(t0)
	}
}

// user is the host time inside the calls, nested Emit calls and the
// probe's own clock reads excluded.
func (p *probe) user(c userCalls) time.Duration {
	return max(c.total-c.emit-time.Duration(c.emits)*(p.pair-p.bias)-time.Duration(c.calls)*p.bias, 0)
}

// userTime is the estimated host time inside Mapper, Combiner and
// Reducer code, nested Emit calls excluded.
func (p *probe) userTime() time.Duration {
	return p.scaleMap(p.user(p.mapTimed)) + p.user(p.rest)
}

// emitTime is the estimated host time inside the map-side Emitter (the
// framework's sort buffer): all Map-call time, less the probe's clock
// reads and the mapper's own estimated time.
func (p *probe) emitTime() time.Duration {
	clocks := time.Duration(p.mapCalls)*p.bias + time.Duration(p.mapTimed.emits)*p.pair
	return max(p.mapAll-clocks-p.scaleMap(p.user(p.mapTimed)), 0)
}

func (p *probe) scaleMap(d time.Duration) time.Duration {
	if p.mapTimed.calls == 0 {
		return 0
	}
	return time.Duration(float64(d) * float64(p.mapCalls) / float64(p.mapTimed.calls))
}

// wrapJob replaces the job's factories with timing wrappers when the
// probe is on. The wrappers forward Setupper and Closer, so the framework
// drives the user code exactly as before.
func (p *probe) wrapJob(job *mapreduce.Job) {
	if !p.on {
		return
	}
	newMapper := job.NewMapper
	job.NewMapper = func() mapreduce.Mapper { return &timedMapper{p: p, inner: newMapper()} }
	newReducer := job.NewReducer
	job.NewReducer = func() mapreduce.Reducer { return &timedReducer{p: p, inner: newReducer()} }
	if newCombiner := job.NewCombiner; newCombiner != nil {
		job.NewCombiner = func() mapreduce.Reducer { return &timedReducer{p: p, inner: newCombiner()} }
	}
}

// timedEmitter forwards to the framework emitter and accumulates the
// host time spent inside it.
type timedEmitter struct {
	out mapreduce.Emitter
	n   int64
	acc time.Duration
}

func (e *timedEmitter) Emit(key string, value mapreduce.Value) error {
	t0 := time.Now()
	err := e.out.Emit(key, value)
	e.acc += time.Since(t0)
	e.n++
	return err
}

// timed runs one user-code call with a timed emitter and adds it to c.
func (c *userCalls) timed(em *timedEmitter, out mapreduce.Emitter, call func(mapreduce.Emitter) error) error {
	em.out, em.n, em.acc = out, 0, 0
	t0 := time.Now()
	err := call(em)
	c.total += time.Since(t0)
	c.calls++
	c.emits += em.n
	c.emit += em.acc
	return err
}

type timedMapper struct {
	p     *probe
	inner mapreduce.Mapper
	em    timedEmitter
}

func (m *timedMapper) Map(ctx *mapreduce.TaskContext, off int64, line string, out mapreduce.Emitter) error {
	m.p.mapCalls++
	sampled := m.p.mapCalls%mapSample == 0
	if sampled {
		m.em.out, m.em.n, m.em.acc = out, 0, 0
		out = &m.em
	}
	t0 := time.Now()
	err := m.inner.Map(ctx, off, line, out)
	d := time.Since(t0)
	m.p.mapAll += d
	if sampled {
		c := &m.p.mapTimed
		c.calls++
		c.total += d
		c.emits += m.em.n
		c.emit += m.em.acc
	}
	return err
}

func (m *timedMapper) Setup(ctx *mapreduce.TaskContext) error {
	s, ok := m.inner.(mapreduce.Setupper)
	if !ok {
		return nil
	}
	return m.p.rest.timed(&m.em, nil, func(mapreduce.Emitter) error { return s.Setup(ctx) })
}

func (m *timedMapper) Close(ctx *mapreduce.TaskContext, out mapreduce.Emitter) error {
	c, ok := m.inner.(mapreduce.Closer)
	if !ok {
		return nil
	}
	return m.p.rest.timed(&m.em, out, func(e mapreduce.Emitter) error { return c.Close(ctx, e) })
}

type timedReducer struct {
	p     *probe
	inner mapreduce.Reducer
	em    timedEmitter
}

func (r *timedReducer) Reduce(ctx *mapreduce.TaskContext, key string, values *mapreduce.Values, out mapreduce.Emitter) error {
	return r.p.rest.timed(&r.em, out, func(e mapreduce.Emitter) error { return r.inner.Reduce(ctx, key, values, e) })
}

func (r *timedReducer) Setup(ctx *mapreduce.TaskContext) error {
	s, ok := r.inner.(mapreduce.Setupper)
	if !ok {
		return nil
	}
	return r.p.rest.timed(&r.em, nil, func(mapreduce.Emitter) error { return s.Setup(ctx) })
}

func (r *timedReducer) Close(ctx *mapreduce.TaskContext, out mapreduce.Emitter) error {
	c, ok := r.inner.(mapreduce.Closer)
	if !ok {
		return nil
	}
	return r.p.rest.timed(&r.em, out, func(e mapreduce.Emitter) error { return c.Close(ctx, e) })
}

// windowQuantile estimates the q-quantile of samples (which it sorts) as
// the mean of those ranked within half a percent of q. Single steps last
// tens of nanoseconds, near the clock's resolution, where a plain order
// statistic would jump between a few integer values.
func windowQuantile(samples []float32, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	slices.Sort(samples)
	n := float64(len(samples))
	lo := max(int(math.Floor((q-0.005)*n)), 0)
	hi := min(max(int(math.Ceil((q+0.005)*n)), lo+1), len(samples))
	var sum float64
	for _, v := range samples[lo:hi] {
		sum += float64(v)
	}
	return sum / float64(hi-lo)
}
