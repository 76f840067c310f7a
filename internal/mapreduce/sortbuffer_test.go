package mapreduce

import (
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/vfs"
)

// emission is one scripted Emit call.
type emission struct {
	key string
	val Value
}

// scriptMapper replays scripted emissions: record i (whose line is "i")
// emits script[i], and Close emits closing.
type scriptMapper struct {
	script  [][]emission
	closing []emission
}

func (m *scriptMapper) Map(ctx *TaskContext, off int64, line string, out Emitter) error {
	i, err := strconv.Atoi(line)
	if err != nil {
		return err
	}
	return emitAll(out, m.script[i])
}

func (m *scriptMapper) Close(ctx *TaskContext, out Emitter) error {
	return emitAll(out, m.closing)
}

func emitAll(out Emitter, es []emission) error {
	for _, e := range es {
		if err := out.Emit(e.key, e.val); err != nil {
			return err
		}
	}
	return nil
}

// Combiners exercised against the oracle: summing (the WordCount
// combiner), identity (every value passes through) and rekeying (output
// keys differ from input keys, so the combiner's output must be sorted
// again).
func sumCombiner() Reducer {
	return ReducerFunc(func(ctx *TaskContext, key string, values *Values, out Emitter) error {
		var sum int64
		if err := values.Each(func(v Value) error { sum += int64(v.(Int64)); return nil }); err != nil {
			return err
		}
		return out.Emit(key, Int64(sum))
	})
}

func identityCombiner() Reducer {
	return ReducerFunc(func(ctx *TaskContext, key string, values *Values, out Emitter) error {
		return values.Each(func(v Value) error { return out.Emit(key, v) })
	})
}

func rekeyCombiner() Reducer {
	return ReducerFunc(func(ctx *TaskContext, key string, values *Values, out Emitter) error {
		rev := []byte(key)
		for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
			rev[i], rev[j] = rev[j], rev[i]
		}
		n := 0
		if err := values.Each(func(v Value) error {
			n++
			if n%2 == 0 {
				return nil // drop every other value: output shrinks
			}
			return out.Emit(string(rev), v)
		}); err != nil {
			return err
		}
		return nil
	})
}

// oracleCase is one randomly drawn ExecuteMap configuration.
type oracleCase struct {
	name    string
	job     *Job
	records []Record
}

func drawOracleCase(rng *rand.Rand, trial int) oracleCase {
	dupHeavy := rng.Intn(2) == 0
	intValues := rng.Intn(2) == 0
	vocab := []string{"", "a", "the", "fox", "\xff", "\x80z", "caf\xc3\xa9", "zz", "a\x00b", "the "}
	key := func() string {
		if dupHeavy {
			return vocab[rng.Intn(len(vocab))]
		}
		if rng.Intn(20) == 0 {
			return vocab[rng.Intn(len(vocab))]
		}
		return fmt.Sprintf("k%06d\xf0", rng.Intn(1<<20))
	}
	val := func() Value {
		if intValues {
			if rng.Intn(2) == 0 {
				return Int64(rng.Intn(4)) // the shared small encodings
			}
			return Int64(rng.Int63())
		}
		if rng.Intn(4) == 0 {
			return Text("")
		}
		return Text(strings.Repeat("v", rng.Intn(6)))
	}
	emissions := func(max int) []emission {
		es := make([]emission, rng.Intn(max+1))
		for i := range es {
			es[i] = emission{key(), val()}
		}
		return es
	}

	nRecords := rng.Intn(400)
	if trial%5 == 0 {
		nRecords = 0 // output from Close alone, or nothing at all
	}
	m := &scriptMapper{script: make([][]emission, nRecords)}
	var records []Record
	var off int64
	for i := range m.script {
		m.script[i] = emissions(12)
		line := strconv.Itoa(i)
		records = append(records, Record{Offset: off, Line: line})
		off += int64(len(line)) + 1
	}
	if rng.Intn(2) == 0 {
		m.closing = emissions(200)
	}

	job := &Job{
		Name:        "oracle",
		NewMapper:   func() Mapper { return m },
		NewReducer:  sumCombiner,
		NumReducers: 1 + rng.Intn(7),
		DecodeValue: DecodeText,
	}
	if intValues {
		job.DecodeValue = DecodeInt64
	}
	switch rng.Intn(3) {
	case 0:
		job.SpillRecords = 0
	case 1:
		job.SpillRecords = 1
	default:
		job.SpillRecords = 1 + rng.Intn(300)
	}
	comb := "none"
	switch rng.Intn(4) {
	case 1:
		if intValues {
			job.NewCombiner, comb = sumCombiner, "sum"
			break
		}
		fallthrough
	case 2:
		job.NewCombiner, comb = identityCombiner, "identity"
	case 3:
		job.NewCombiner, comb = rekeyCombiner, "rekey"
	}
	name := fmt.Sprintf("trial%d/reducers=%d/spill=%d/combiner=%s/dup=%v/int=%v/records=%d",
		trial, job.NumReducers, job.SpillRecords, comb, dupHeavy, intValues, len(records))
	return oracleCase{name: name, job: job, records: records}
}

func TestSortBufferMatchesOracle(t *testing.T) {
	fs := vfs.NewMemFS()
	var shared SortBuffer // reused across every case, as a runtime does
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 40; trial++ {
			c := drawOracleCase(rng, trial)
			wantCtx := NewTaskContext("j", "m", fs, c.job)
			want, wantErr := referenceExecuteMap(wantCtx, c.job, c.records)
			for _, buf := range []*SortBuffer{nil, &shared} {
				ctx := NewTaskContext("j", "m", fs, c.job)
				got, err := ExecuteMap(ctx, c.job, c.records, buf)
				if fmt.Sprint(err) != fmt.Sprint(wantErr) {
					t.Fatalf("seed %d %s: error %v, oracle %v", seed, c.name, err, wantErr)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d %s (shared buffer %v): output differs from the oracle\n got %v\nwant %v",
						seed, c.name, buf != nil, got, want)
				}
				if !reflect.DeepEqual(ctx.Counters, wantCtx.Counters) {
					t.Fatalf("seed %d %s: counters differ\n got %v\nwant %v", seed, c.name, ctx.Counters, wantCtx.Counters)
				}
			}
		}
	}
}

func TestSortBufferGroupedSortMatchesOracle(t *testing.T) {
	// Partitions of 512+ records take the sampled grouped sort; pin it
	// against the oracle on duplicate-heavy and unique-heavy input.
	fs := vfs.NewMemFS()
	var shared SortBuffer
	for _, distinct := range []int{3, 40, 100000} {
		rng := rand.New(rand.NewSource(int64(distinct)))
		m := &scriptMapper{script: make([][]emission, 300)}
		var records []Record
		for i := range m.script {
			for j := 0; j < 20; j++ {
				m.script[i] = append(m.script[i], emission{fmt.Sprintf("w%d\x90", rng.Intn(distinct)), Int64(rng.Intn(40))})
			}
			records = append(records, Record{Offset: int64(i), Line: strconv.Itoa(i)})
		}
		for _, reducers := range []int{1, 3} {
			for _, comb := range []func() Reducer{nil, sumCombiner} {
				job := &Job{Name: "g", NewMapper: func() Mapper { return m }, NewReducer: sumCombiner,
					NewCombiner: comb, NumReducers: reducers, DecodeValue: DecodeInt64}
				wantCtx := NewTaskContext("j", "m", fs, job)
				want, err := referenceExecuteMap(wantCtx, job, records)
				if err != nil {
					t.Fatal(err)
				}
				ctx := NewTaskContext("j", "m", fs, job)
				got, err := ExecuteMap(ctx, job, records, &shared)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(ctx.Counters, wantCtx.Counters) {
					t.Fatalf("distinct=%d reducers=%d combiner=%v: differs from the oracle", distinct, reducers, comb != nil)
				}
			}
		}
	}
}

func TestSortBufferErrorsMatchOracle(t *testing.T) {
	fs := vfs.NewMemFS()
	failing := func() Reducer {
		return ReducerFunc(func(ctx *TaskContext, key string, values *Values, out Emitter) error {
			if key == "b" {
				return fmt.Errorf("combiner refuses %q", key)
			}
			return out.Emit(key, Int64(int64(values.Len())))
		})
	}
	records := []Record{{0, "a b a"}, {6, "c b"}}
	for _, spill := range []int{0, 2} {
		job := wordCountJob()
		job.NewCombiner = failing
		job.SpillRecords = spill
		wantCtx := NewTaskContext("j", "m", fs, job)
		_, wantErr := referenceExecuteMap(wantCtx, job, records)
		ctx := NewTaskContext("j", "m", fs, job)
		_, err := ExecuteMap(ctx, job, records, nil)
		if err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("spill=%d: error %v, oracle %v", spill, err, wantErr)
		}
		if !reflect.DeepEqual(ctx.Counters, wantCtx.Counters) {
			t.Fatalf("spill=%d: counters %v, oracle %v", spill, ctx.Counters, wantCtx.Counters)
		}
	}
}

// retainedValue keeps the exact bytes it was decoded from.
type retainedValue []byte

func (v retainedValue) EncodeValue() []byte { return v }
func (v retainedValue) String() string      { return string(v) }

func TestSortBufferOutputDoesNotAlias(t *testing.T) {
	// A decoder that retains its input hands the combiner values aliasing
	// the collect arena. The first task's output must survive a second
	// task overwriting that arena.
	fs := vfs.NewMemFS()
	retain := func(b []byte) (Value, error) { return retainedValue(b), nil }
	newJob := func(withCombiner bool) *Job {
		job := &Job{
			Name: "alias",
			NewMapper: func() Mapper {
				return MapperFunc(func(ctx *TaskContext, off int64, line string, out Emitter) error {
					for _, w := range strings.Fields(line) {
						if err := out.Emit(w, retainedValue(strings.ToUpper(w))); err != nil {
							return err
						}
					}
					return nil
				})
			},
			NewReducer:  identityCombiner,
			DecodeValue: retain,
			NumReducers: 2,
		}
		if withCombiner {
			job.NewCombiner = identityCombiner
		}
		return job
	}
	snapshot := func(out *MapOutput) [][]string {
		var s [][]string
		for _, part := range out.Partitions {
			var ps []string
			for _, p := range part {
				ps = append(ps, p.Key+"="+string(p.Val))
			}
			s = append(s, ps)
		}
		return s
	}
	for _, withCombiner := range []bool{false, true} {
		var buf SortBuffer
		job := newJob(withCombiner)
		first, err := ExecuteMap(NewTaskContext("j", "m0", fs, job), job,
			[]Record{{0, "apple pear apple fig"}, {21, "kiwi pear"}}, &buf)
		if err != nil {
			t.Fatal(err)
		}
		before := snapshot(first)
		if _, err := ExecuteMap(NewTaskContext("j", "m1", fs, job), job,
			[]Record{{0, "zzzzzzzzzz yyyyyyyyyy xxxxxxxxxx wwwwwwwwww vvvvvvvvvv"}}, &buf); err != nil {
			t.Fatal(err)
		}
		if after := snapshot(first); !reflect.DeepEqual(after, before) {
			t.Fatalf("combiner=%v: first task's output changed under the reused buffer:\nbefore %q\nafter  %q",
				withCombiner, before, after)
		}
		for _, part := range first.Partitions {
			for _, p := range part {
				if cap(p.Val) != len(p.Val) {
					t.Fatalf("value %q has spare capacity %d: an append would clobber its neighbour", p.Val, cap(p.Val))
				}
			}
		}
	}
}

// spaceTokenMapper is WordCount's mapper without per-line allocation, so
// an allocation count measures the framework rather than the user code.
func spaceTokenMapper() Mapper {
	return MapperFunc(func(ctx *TaskContext, off int64, line string, out Emitter) error {
		for line != "" {
			w, rest, _ := strings.Cut(line, " ")
			if w != "" {
				if err := out.Emit(w, Int64(1)); err != nil {
					return err
				}
			}
			line = rest
		}
		return nil
	})
}

func TestExecuteMapSteadyStateAllocs(t *testing.T) {
	// With a reused buffer a counting task allocates per distinct key and
	// per partition, not per record: 10x the records, the same allocations.
	fs := vfs.NewMemFS()
	job := wordCountJob()
	job.NewMapper = spaceTokenMapper
	job.NewCombiner = job.NewReducer
	allocs := func(n int) float64 {
		records := make([]Record, n)
		for i := range records {
			records[i] = Record{Offset: int64(i * 44), Line: "the quick brown fox jumps over the lazy dog"}
		}
		var buf SortBuffer
		return testing.AllocsPerRun(5, func() {
			ctx := NewTaskContext("wc", "m0", fs, job)
			if _, err := ExecuteMap(ctx, job, records, &buf); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(5_000), allocs(50_000)
	if large > small+2 {
		t.Fatalf("allocs/op grow with records: %.0f at 5k, %.0f at 50k", small, large)
	}
	// The task context, counters and output headers, plus per distinct
	// key its grouped-sort entry and the combiner's boxed, encoded sum.
	const distinct = 8
	if limit := 20.0 + 4*distinct; small > limit {
		t.Fatalf("allocs/op = %.0f at 5k records, want <= %.0f: O(distinct keys + partitions)", small, limit)
	}
	t.Logf("allocs/op: %.0f at 5k records, %.0f at 50k", small, large)
}

func TestRecordsInRangeAllocs(t *testing.T) {
	// One string for the split's window plus the record slice: O(1)
	// allocations per split, not one per line.
	var b strings.Builder
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&b, "line %d of the window\r\n", i)
	}
	data := []byte(b.String())
	var n int
	allocs := testing.AllocsPerRun(10, func() {
		n = len(RecordsInRange(data, 0, 0, int64(len(data))))
	})
	if n != 1000 {
		t.Fatalf("got %d records, want 1000", n)
	}
	if allocs > 3 {
		t.Fatalf("RecordsInRange allocs/op = %.0f, want <= 3", allocs)
	}
}
