package mapreduce

// The map-side collect/sort/spill path as it stood before the SortBuffer:
// per-partition []Pair buffers, SortPairs and RunCombiner, kept verbatim
// as the oracle the sort buffer is checked against (sortbuffer_test.go).
// The sampling constants dupSampleMinLen and dupSampleSize are shared
// with the production sort.

import (
	"fmt"
	"slices"
	"strings"
)

// referenceExecuteMap runs one map task over its records: Setup, Map per record,
// Close, then partition, sort and combine — spilling the sort buffer
// whenever it exceeds the job's SpillRecords bound, exactly as a full
// io.sort buffer forces a Hadoop map task to spill mid-run. Both runtimes
// call this; they differ only in how they fetch the records and where the
// output lives.
func referenceExecuteMap(ctx *TaskContext, job *Job, records []Record) (*MapOutput, error) {
	mapper := job.NewMapper()
	nParts := job.Reducers()
	part := job.Partitioner()

	// spills[p] holds the sorted+combined runs already flushed for
	// partition p; buffer holds unsorted pairs not yet spilled.
	spills := make([][][]Pair, nParts)
	buffer := make([][]Pair, nParts)
	buffered := 0

	spill := func() error {
		for p, pairs := range buffer {
			if len(pairs) == 0 {
				continue
			}
			SortPairs(pairs)
			combined, err := RunCombiner(ctx, job, pairs)
			if err != nil {
				return fmt.Errorf("combiner: %w", err)
			}
			spills[p] = append(spills[p], combined)
			ctx.Counters.Inc(CtrSpilledRecords, int64(len(combined)))
			buffer[p] = nil
		}
		buffered = 0
		return nil
	}

	// The per-record counters are accumulated in locals and flushed once:
	// two map-assigns per emitted pair was a measurable slice of the map
	// phase on counting jobs.
	var outRecords, outBytes int64
	emit := EmitterFunc(func(key string, value Value) error {
		p := part(key, nParts)
		if p < 0 || p >= nParts {
			return fmt.Errorf("mapreduce: partitioner returned %d for %d reducers", p, nParts)
		}
		pair := Pair{Key: key, Val: value.EncodeValue()}
		buffer[p] = append(buffer[p], pair)
		buffered++
		outRecords++
		outBytes += pair.Bytes()
		if job.SpillRecords > 0 && buffered >= job.SpillRecords {
			return spill()
		}
		return nil
	})

	if s, ok := mapper.(Setupper); ok {
		if err := s.Setup(ctx); err != nil {
			return nil, fmt.Errorf("map setup: %w", err)
		}
	}
	var inRecords, inBytes int64
	for _, rec := range records {
		inRecords++
		inBytes += int64(len(rec.Line)) + 1
		if err := mapper.Map(ctx, rec.Offset, rec.Line, emit); err != nil {
			return nil, fmt.Errorf("map record at offset %d: %w", rec.Offset, err)
		}
	}
	ctx.Counters.Inc(CtrMapInputRecords, inRecords)
	ctx.Counters.Inc(CtrMapInputBytes, inBytes)
	if c, ok := mapper.(Closer); ok {
		if err := c.Close(ctx, emit); err != nil {
			return nil, fmt.Errorf("map close: %w", err)
		}
	}
	ctx.Counters.Inc(CtrMapOutputRecords, outRecords)
	ctx.Counters.Inc(CtrMapOutputBytes, outBytes)
	if err := spill(); err != nil {
		return nil, err
	}

	// Merge the spill runs per partition; a multi-spill merge re-combines
	// so each final partition holds at most one pair per combined key.
	out := &MapOutput{Partitions: make([][]Pair, nParts)}
	for p, runs := range spills {
		switch len(runs) {
		case 0:
			out.Partitions[p] = nil
		case 1:
			out.Partitions[p] = runs[0]
		default:
			merged := MergeSortedRuns(runs)
			combined, err := RunCombiner(ctx, job, merged)
			if err != nil {
				return nil, fmt.Errorf("merge combiner: %w", err)
			}
			out.Partitions[p] = combined
		}
	}
	return out, nil
}

// keyIndex is the sort key the shuffle actually orders by: the record's
// key plus its emission index. Sorting these 24-byte headers (instead of
// swapping full Pair structs through a reflective comparator, as the old
// sort.SliceStable implementation did) keeps the hot comparison loop in
// cache and makes an unstable pattern-defeating quicksort equivalent to a
// stable sort — the index breaks every tie deterministically.
type keyIndex struct {
	key string
	i   int32
}

// SortPairs orders pairs by key. Equal keys keep their emission order so
// that values for a key arrive at the reducer deterministically, which
// several of the course jobs rely on.
//
// Two strategies produce that order. The general path sorts (key, index)
// headers. Duplicate-heavy outputs — counting jobs emit each word
// thousands of times — instead group by key first and sort only the
// distinct keys, turning an O(n log n) comparison sort into O(u log u)
// for u unique keys plus two linear passes. A small sample of the input
// picks the strategy; both yield byte-identical results.
func SortPairs(pairs []Pair) {
	n := len(pairs)
	if n < 2 {
		return
	}
	if n >= dupSampleMinLen && looksDuplicateHeavy(pairs) {
		groupSortPairs(pairs)
		return
	}
	idx := make([]keyIndex, n)
	for i, p := range pairs {
		idx[i] = keyIndex{key: p.Key, i: int32(i)}
	}
	slices.SortFunc(idx, func(a, b keyIndex) int {
		if c := strings.Compare(a.key, b.key); c != 0 {
			return c
		}
		return int(a.i) - int(b.i)
	})
	tmp := make([]Pair, n)
	for i, k := range idx {
		tmp[i] = pairs[k.i]
	}
	copy(pairs, tmp)
}

// looksDuplicateHeavy samples evenly spaced keys and reports whether the
// sample repeats keys enough to justify the grouped sort. It is only a
// performance heuristic: either answer leaves the sorted output identical.
func looksDuplicateHeavy(pairs []Pair) bool {
	seen := make(map[string]struct{}, dupSampleSize)
	step := len(pairs) / dupSampleSize
	for i := 0; i < dupSampleSize; i++ {
		seen[pairs[i*step].Key] = struct{}{}
	}
	return len(seen) <= dupSampleSize*3/4
}

// groupSortPairs is the duplicate-heavy strategy: assign each distinct
// key a group, sort the groups, then scatter the pairs into their group's
// output window in emission order.
func groupSortPairs(pairs []Pair) {
	n := len(pairs)
	gids := make([]int32, n)
	gidOf := make(map[string]int32, 64)
	var groups []keyIndex // key plus its group id
	var counts []int32
	for i, p := range pairs {
		g, ok := gidOf[p.Key]
		if !ok {
			g = int32(len(groups))
			gidOf[p.Key] = g
			groups = append(groups, keyIndex{key: p.Key, i: g})
			counts = append(counts, 0)
		}
		gids[i] = g
		counts[g]++
	}
	slices.SortFunc(groups, func(a, b keyIndex) int {
		return strings.Compare(a.key, b.key) // keys are distinct: no ties
	})
	offs := make([]int32, len(groups))
	var off int32
	for _, g := range groups {
		offs[g.i] = off
		off += counts[g.i]
	}
	tmp := make([]Pair, n)
	for i, p := range pairs {
		g := gids[i]
		tmp[offs[g]] = p
		offs[g]++
	}
	copy(pairs, tmp)
}

// pairCollector is an Emitter that appends encoded pairs to a slice.
type pairCollector struct {
	pairs []Pair
}

func (p *pairCollector) Emit(key string, value Value) error {
	p.pairs = append(p.pairs, Pair{Key: key, Val: value.EncodeValue()})
	return nil
}

// RunCombiner applies the job's combiner to a sorted partition of map
// output, returning the (sorted) combined pairs and updating the combine
// counters. With no combiner configured it returns the input unchanged.
func RunCombiner(ctx *TaskContext, job *Job, sorted []Pair) ([]Pair, error) {
	if job.NewCombiner == nil {
		return sorted, nil
	}
	combiner := job.NewCombiner()
	col := &pairCollector{}
	var inRecords int64
	err := GroupIterate(sorted, job.DecodeValue, func(key string, values *Values) error {
		inRecords += int64(values.Len())
		return combiner.Reduce(ctx, key, values, col)
	})
	ctx.Counters.Inc(CtrCombineInputRecords, inRecords)
	if err != nil {
		return nil, err
	}
	ctx.Counters.Inc(CtrCombineOutputRecords, int64(len(col.pairs)))
	SortPairs(col.pairs)
	return col.pairs, nil
}
