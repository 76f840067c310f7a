package mapreduce

import (
	"fmt"
	"io"
)

// MapOutput is one map task's output: a sorted (and, if configured,
// combined) run of pairs per reduce partition.
type MapOutput struct {
	Partitions [][]Pair
}

// Bytes returns the total encoded size of the output — what the shuffle
// will move for this task.
func (m *MapOutput) Bytes() int64 {
	var n int64
	for _, part := range m.Partitions {
		for _, p := range part {
			n += p.Bytes()
		}
	}
	return n
}

// Records returns the total pair count across partitions.
func (m *MapOutput) Records() int64 {
	var n int64
	for _, part := range m.Partitions {
		n += int64(len(part))
	}
	return n
}

// ExecuteMap runs one map task over its records: Setup, Map per record,
// Close, then partition, sort and combine, spilling the sort buffer
// whenever it holds the job's SpillRecords, exactly as a full io.sort
// buffer forces a Hadoop map task to spill mid-run. Both runtimes call
// this; they differ only in how they fetch the records and where the
// output lives. b is the caller's sort buffer, reused across calls
// (nil runs the task on a fresh one).
func ExecuteMap(ctx *TaskContext, job *Job, records []Record, b *SortBuffer) (*MapOutput, error) {
	if b == nil {
		b = new(SortBuffer)
	}
	defer b.release()
	mapper := job.NewMapper()
	nParts := job.Reducers()
	part := job.Partitioner()
	b.kv.reset()

	// spills[p] holds the sorted, combined runs already flushed for
	// partition p, one per spill in which p received records.
	spills := make([][][]Pair, nParts)
	spill := func() error {
		if len(b.kv.meta) == 0 {
			return nil
		}
		if err := b.flush(ctx, job, nParts, false); err != nil {
			return err
		}
		for p, n := range b.parts {
			if n > 0 {
				spills[p] = append(spills[p], b.run[p])
			}
		}
		b.kv.reset()
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
		val := value.EncodeValue()
		if err := b.kv.add(p, key, val); err != nil {
			return err
		}
		outRecords++
		outBytes += int64(len(key) + len(val))
		if job.SpillRecords > 0 && len(b.kv.meta) >= job.SpillRecords {
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

	// A partition spilled once keeps its run. Runs of a partition spilled
	// several times are reloaded into the buffer in spill order and
	// flushed once more: the sort's emission-offset tie-break merges them
	// with ties in spill order, and the combiner runs again so each final
	// partition holds at most one pair per combined key.
	out := &MapOutput{Partitions: make([][]Pair, nParts)}
	for p, runs := range spills {
		if len(runs) == 1 {
			out.Partitions[p] = runs[0]
			continue
		}
		for _, run := range runs {
			for _, kv := range run {
				if err := b.kv.add(p, kv.Key, kv.Val); err != nil {
					return nil, err
				}
			}
		}
	}
	if len(b.kv.meta) > 0 {
		if err := b.flush(ctx, job, nParts, true); err != nil {
			return nil, err
		}
		for p, runs := range spills {
			if len(runs) > 1 {
				out.Partitions[p] = b.run[p]
			}
		}
	}
	return out, nil
}

// ExecuteReduce runs one reduce task: merge the sorted runs fetched from
// each map task, group by key, apply the reducer (with lifecycle hooks),
// and write the output to w. When w implements RecordWriter (as the
// format-aware OutputWriter does), records flow through WriteRecord;
// otherwise text lines ("key<TAB>value\n") are written. Returns the
// logical (pre-compression) bytes emitted.
func ExecuteReduce(ctx *TaskContext, job *Job, runs [][]Pair, w io.Writer) (int64, error) {
	reducer := job.NewReducer()
	rw, structured := w.(RecordWriter)
	var written int64
	var line []byte // reused text-line scratch for the unstructured path
	var outRecords int64
	emit := EmitterFunc(func(key string, value Value) error {
		outRecords++
		s := value.String()
		written += int64(len(key) + len(s) + 2) // tab + newline
		if structured {
			return rw.WriteRecord(key, s)
		}
		line = append(line[:0], key...)
		line = append(line, '\t')
		line = append(line, s...)
		line = append(line, '\n')
		_, err := w.Write(line)
		return err
	})

	if s, ok := reducer.(Setupper); ok {
		if err := s.Setup(ctx); err != nil {
			return written, fmt.Errorf("reduce setup: %w", err)
		}
	}
	merged := MergeSortedRuns(runs)
	var inGroups, inRecords int64
	err := GroupIterateBy(merged, job.DecodeValue, job.GroupKey, func(key string, values *Values) error {
		inGroups++
		inRecords += int64(values.Len())
		return reducer.Reduce(ctx, key, values, emit)
	})
	ctx.Counters.Inc(CtrReduceInputGroups, inGroups)
	ctx.Counters.Inc(CtrReduceInputRecords, inRecords)
	if err != nil {
		return written, fmt.Errorf("reduce: %w", err)
	}
	if c, ok := reducer.(Closer); ok {
		if err := c.Close(ctx, emit); err != nil {
			return written, fmt.Errorf("reduce close: %w", err)
		}
	}
	ctx.Counters.Inc(CtrReduceOutputRecords, outRecords)
	return written, nil
}

// PartitionName returns the conventional output file name for reducer r.
func PartitionName(r int) string {
	return fmt.Sprintf("part-r-%05d", r)
}
