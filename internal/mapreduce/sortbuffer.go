package mapreduce

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
)

// SortBuffer is the map-side collect/sort/spill buffer, shaped like
// Hadoop's MapOutputBuffer. Emitted key and value bytes are appended to
// one byte arena (kvbuffer); a fixed-width, pointer-free index entry per
// record (kvmeta) names its partition and where its bytes sit. A spill
// sorts the index, never the bytes, by (partition, key, emission offset),
// runs the combiner straight off the arena, and copies the result out as
// one owned window: one string holding every key and one byte slice
// holding every value. Output pairs never alias the arena, so the buffer
// is reused across spills, tasks and attempts, and its capacity settles
// at the largest task's output.
//
// The zero value is ready to use. A SortBuffer is not safe for concurrent
// use: each goroutine that runs map tasks owns one.
type SortBuffer struct {
	kv   kvArena // the collect buffer: map output of the current window
	comb kvArena // the combiner's output for the current window

	parts   []int32  // records per partition in the window
	pos     []int32  // partition scatter cursors
	scratch []kvMeta // scatter target of the partition and grouped sorts
	ends    []int32  // group end indices into kv.meta, in sorted order

	gidOf  map[string]int32 // grouped sort: key -> group id
	gids   []int32          // grouped sort: each record's group id
	groups []kvGroup        // grouped sort: distinct keys
	offs   []int32          // grouped sort: each group's output cursor

	values Values       // the combiner's value iterator, reused per group
	col    arenaEmitter // the combiner's emitter into comb
	run    [][]Pair     // the window's output run per partition
}

// kvMeta is one record's index entry. keyOff never decreases in emission
// order within a window, so (keyOff, valLen) is the stable-sort
// tie-breaker: records share an offset only behind an empty record.
type kvMeta struct {
	part   int32
	keyOff int32 // key at buf[keyOff:keyOff+keyLen]; the value follows it
	keyLen int32
	valLen int32
}

// kvArena is a byte arena plus its record index.
type kvArena struct {
	buf      []byte
	meta     []kvMeta
	keyBytes int
	valBytes int
}

// kvGroup is one distinct key of the grouped sort: its first record, its
// group id and its record count.
type kvGroup struct {
	first kvMeta
	gid   int32
	n     int32
}

var errWindowFull = errors.New("mapreduce: map output spill window exceeds 2 GiB; bound it with Job.SpillRecords")

func (a *kvArena) reset() {
	a.buf, a.meta = a.buf[:0], a.meta[:0]
	a.keyBytes, a.valBytes = 0, 0
}

// add copies one record into the arena.
func (a *kvArena) add(part int, key string, val []byte) error {
	off := len(a.buf)
	if off+len(key)+len(val) > math.MaxInt32 {
		return errWindowFull
	}
	a.buf = append(a.buf, key...)
	a.buf = append(a.buf, val...)
	a.meta = append(a.meta, kvMeta{part: int32(part), keyOff: int32(off), keyLen: int32(len(key)), valLen: int32(len(val))})
	a.keyBytes += len(key)
	a.valBytes += len(val)
	return nil
}

func (a *kvArena) key(m kvMeta) []byte { return a.buf[m.keyOff : m.keyOff+m.keyLen] }

// val returns m's value capped at its own length, so a consumer that
// appends to it cannot overwrite the next record.
func (a *kvArena) val(m kvMeta) []byte {
	o := m.keyOff + m.keyLen
	return a.buf[o : o+m.valLen : o+m.valLen]
}

// arenaEmitter collects the combiner's output into an arena, copying the
// bytes at once: a value the combiner decoded from the collect buffer
// may still alias it.
type arenaEmitter struct {
	a    *kvArena
	part int
}

func (e *arenaEmitter) Emit(key string, value Value) error {
	return e.a.add(e.part, key, value.EncodeValue())
}

// release drops the buffer's references to the finished task's output
// and user code; the arenas keep their capacity for the next task.
func (b *SortBuffer) release() {
	clear(b.run)
	b.values = Values{}
}

// flush sorts the collected window, combines it when the job has a
// combiner, and cuts the result into b.run (nil for a partition with no
// output); b.parts holds each partition's collected record count. A final
// flush is the end-of-task merge of several spills: it combines again but
// counts no spilled records.
func (b *SortBuffer) flush(ctx *TaskContext, job *Job, nParts int, final bool) error {
	combining := job.NewCombiner != nil
	b.run = slices.Grow(b.run[:0], nParts)[:nParts]
	b.partition(nParts)
	b.ends = b.ends[:0]
	lo := 0
	for _, n := range b.parts {
		if n > 0 {
			b.sortRange(&b.kv, lo, lo+int(n), combining)
			lo += int(n)
		}
	}
	if !combining {
		if !final {
			for _, n := range b.parts {
				if n > 0 {
					ctx.Counters.Inc(CtrSpilledRecords, int64(n))
				}
			}
		}
		b.cut(&b.kv)
		return nil
	}
	if err := b.combine(ctx, job, final); err != nil {
		if final {
			return fmt.Errorf("merge combiner: %w", err)
		}
		return fmt.Errorf("combiner: %w", err)
	}
	b.cut(&b.comb)
	return nil
}

// partition counts the window's records per partition and, when more
// than one partition is present, scatters the index into partition order
// (a stable counting sort, so each partition stays in emission order).
func (b *SortBuffer) partition(nParts int) {
	meta := b.kv.meta
	b.parts = slices.Grow(b.parts[:0], nParts)[:nParts]
	clear(b.parts)
	for _, m := range meta {
		b.parts[m.part]++
	}
	if int(b.parts[meta[0].part]) == len(meta) {
		return
	}
	b.pos = slices.Grow(b.pos[:0], nParts)[:nParts]
	var at int32
	for p, n := range b.parts {
		b.pos[p] = at
		at += n
	}
	b.scratch = slices.Grow(b.scratch[:0], len(meta))[:len(meta)]
	for _, m := range meta {
		b.scratch[b.pos[m.part]] = m
		b.pos[m.part]++
	}
	b.kv.meta, b.scratch = b.scratch, meta
}

const (
	dupSampleMinLen = 512 // below this the direct sort always wins
	dupSampleSize   = 64
)

// sortRange orders a.meta[lo:hi], one partition's records, by (key,
// emission offset). When groups is set it appends each key group's end
// index to b.ends for the combine pass.
//
// Two strategies produce that order. The general path sorts the index
// entries directly. Duplicate-heavy output (counting jobs emit each word
// thousands of times) is instead grouped by key first and only the
// distinct keys are sorted, turning an O(n log n) comparison sort into
// O(u log u) for u unique keys plus two linear passes; the groups it
// builds are the combine pass's group boundaries for free. A small sample
// of the range picks the strategy; both yield the same order.
func (b *SortBuffer) sortRange(a *kvArena, lo, hi int, groups bool) {
	r := a.meta[lo:hi]
	if len(r) >= dupSampleMinLen && a.duplicateHeavy(r) {
		b.groupSort(a, r, lo, groups)
		return
	}
	slices.SortFunc(r, func(x, y kvMeta) int {
		if c := bytes.Compare(a.key(x), a.key(y)); c != 0 {
			return c
		}
		if c := cmp.Compare(x.keyOff, y.keyOff); c != 0 {
			return c
		}
		// Two records share an offset only when the first is empty (no key
		// bytes, no value bytes): the empty one was emitted first.
		return cmp.Compare(x.valLen, y.valLen)
	})
	if groups {
		for i := 1; i < len(r); i++ {
			if !bytes.Equal(a.key(r[i]), a.key(r[i-1])) {
				b.ends = append(b.ends, int32(lo+i))
			}
		}
		b.ends = append(b.ends, int32(hi))
	}
}

// duplicateHeavy samples evenly spaced keys of r and reports whether the
// sample repeats keys enough to justify the grouped sort. It is only a
// performance heuristic: either answer leaves the sorted order identical.
func (a *kvArena) duplicateHeavy(r []kvMeta) bool {
	var sample [dupSampleSize]kvMeta
	step := len(r) / dupSampleSize
	for i := range sample {
		sample[i] = r[i*step]
	}
	slices.SortFunc(sample[:], func(x, y kvMeta) int { return bytes.Compare(a.key(x), a.key(y)) })
	distinct := 1
	for i := 1; i < len(sample); i++ {
		if !bytes.Equal(a.key(sample[i]), a.key(sample[i-1])) {
			distinct++
		}
	}
	return distinct <= dupSampleSize*3/4
}

// groupSort is the duplicate-heavy strategy for r = a.meta[lo:...]:
// assign each distinct key a group, sort the groups, then scatter the
// records into their group's output window in emission order.
func (b *SortBuffer) groupSort(a *kvArena, r []kvMeta, lo int, groups bool) {
	if b.gidOf == nil {
		b.gidOf = make(map[string]int32, 64)
	}
	clear(b.gidOf)
	b.gids = slices.Grow(b.gids[:0], len(r))[:len(r)]
	b.groups = b.groups[:0]
	for i, m := range r {
		k := a.key(m)
		g, ok := b.gidOf[string(k)]
		if !ok {
			g = int32(len(b.groups))
			b.gidOf[string(k)] = g
			b.groups = append(b.groups, kvGroup{first: m, gid: g})
		}
		b.gids[i] = g
		b.groups[g].n++
	}
	slices.SortFunc(b.groups, func(x, y kvGroup) int {
		return bytes.Compare(a.key(x.first), a.key(y.first)) // keys are distinct: no ties
	})
	b.offs = slices.Grow(b.offs[:0], len(b.groups))[:len(b.groups)]
	var off int32
	for _, g := range b.groups {
		b.offs[g.gid] = off
		off += g.n
		if groups {
			b.ends = append(b.ends, int32(lo)+off)
		}
	}
	b.scratch = slices.Grow(b.scratch[:0], len(r))[:len(r)]
	for i, m := range r {
		g := b.gids[i]
		b.scratch[b.offs[g]] = m
		b.offs[g]++
	}
	copy(r, b.scratch)
}

// combine runs the combiner over the sorted window, one combiner instance
// per partition and one Reduce call per key group, collecting its output
// into b.comb sorted by (key, emission order) within each partition. The
// combiner reads its values straight from the collect arena; its keys are
// substrings of one string holding every group's key.
func (b *SortBuffer) combine(ctx *TaskContext, job *Job, final bool) error {
	total, start := 0, 0
	for _, end := range b.ends {
		total += int(b.kv.meta[start].keyLen)
		start = int(end)
	}
	var sb strings.Builder
	sb.Grow(total)
	start = 0
	for _, end := range b.ends {
		sb.Write(b.kv.key(b.kv.meta[start]))
		start = int(end)
	}
	keys := sb.String()

	b.comb.reset()
	b.col.a = &b.comb
	b.values = Values{decode: job.DecodeValue}
	start, gi, ko := 0, 0, 0
	for p, n := range b.parts {
		if n == 0 {
			continue
		}
		hi := start + int(n)
		combiner := job.NewCombiner()
		b.col.part = p
		from := len(b.comb.meta)
		var inRecords int64
		var err error
		for err == nil && start < hi {
			end := int(b.ends[gi])
			gi++
			group := b.kv.meta[start:end]
			kl := int(group[0].keyLen)
			key := keys[ko : ko+kl]
			ko += kl
			b.values.arena, b.values.meta, b.values.i = &b.kv, group, 0
			inRecords += int64(len(group))
			err = combiner.Reduce(ctx, key, &b.values, &b.col)
			start = end
		}
		ctx.Counters.Inc(CtrCombineInputRecords, inRecords)
		if err != nil {
			return err
		}
		combined := len(b.comb.meta) - from
		ctx.Counters.Inc(CtrCombineOutputRecords, int64(combined))
		b.sortRange(&b.comb, from, len(b.comb.meta), false)
		if !final {
			ctx.Counters.Inc(CtrSpilledRecords, int64(combined))
		}
	}
	return nil
}

// cut copies a sorted window out of arena a into owned pairs: every key
// from one string conversion, every value from one copy, and one Pair
// slice the per-partition runs in b.run are windows of.
func (b *SortBuffer) cut(a *kvArena) {
	clear(b.run)
	n := len(a.meta)
	if n == 0 {
		return
	}
	var sb strings.Builder
	sb.Grow(a.keyBytes)
	for _, m := range a.meta {
		sb.Write(a.key(m))
	}
	keys := sb.String()
	vals := make([]byte, a.valBytes)
	pairs := make([]Pair, n)
	ko, vo := 0, 0
	for i, m := range a.meta {
		kl, vl := int(m.keyLen), int(m.valLen)
		copy(vals[vo:], a.val(m))
		pairs[i] = Pair{Key: keys[ko : ko+kl], Val: vals[vo : vo+vl : vo+vl]}
		ko += kl
		vo += vl
	}
	for lo := 0; lo < n; {
		p := a.meta[lo].part
		hi := lo + 1
		for hi < n && a.meta[hi].part == p {
			hi++
		}
		b.run[p] = pairs[lo:hi:hi]
		lo = hi
	}
}
