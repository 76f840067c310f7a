package mapreduce

// mergeCursor is one run's head position inside the k-way merge heap.
type mergeCursor struct {
	run int // index into runs, the deterministic tie-breaker
	pos int
}

// MergeSortedRuns merges pre-sorted runs of pairs (one per map task) into
// a single sorted slice — the reduce-side merge phase. Ties across runs
// resolve in run order, keeping the merge deterministic. Small merges use
// a linear scan over run heads; larger fan-ins switch to a binary heap of
// cursors so the per-record cost is O(log k) comparisons instead of O(k).
func MergeSortedRuns(runs [][]Pair) []Pair {
	total := 0
	nonEmpty := 0
	for _, r := range runs {
		if len(r) > 0 {
			nonEmpty++
			total += len(r)
		}
	}
	out := make([]Pair, 0, total)
	switch nonEmpty {
	case 0:
		return out
	case 1:
		for _, r := range runs {
			if len(r) > 0 {
				return append(out, r...)
			}
		}
	}

	if nonEmpty <= 4 {
		// Cursor-based linear scan: cheap for the common 2–4 run case.
		cur := make([]mergeCursor, 0, nonEmpty)
		for i, r := range runs {
			if len(r) > 0 {
				cur = append(cur, mergeCursor{run: i})
			}
		}
		for len(cur) > 0 {
			best := 0
			for i := 1; i < len(cur); i++ {
				if runs[cur[i].run][cur[i].pos].Key < runs[cur[best].run][cur[best].pos].Key {
					best = i
				}
			}
			c := &cur[best]
			out = append(out, runs[c.run][c.pos])
			c.pos++
			if c.pos == len(runs[c.run]) {
				cur = append(cur[:best], cur[best+1:]...)
			}
		}
		return out
	}

	// Heap merge. less orders by (head key, run index); the run index keeps
	// ties in run order, matching the linear scan exactly.
	h := make([]mergeCursor, 0, nonEmpty)
	less := func(a, b mergeCursor) bool {
		ka, kb := runs[a.run][a.pos].Key, runs[b.run][b.pos].Key
		if ka != kb {
			return ka < kb
		}
		return a.run < b.run
	}
	push := func(c mergeCursor) {
		h = append(h, c)
		for i := len(h) - 1; i > 0; {
			p := (i - 1) / 2
			if !less(h[i], h[p]) {
				break
			}
			h[i], h[p] = h[p], h[i]
			i = p
		}
	}
	siftDown := func() {
		i := 0
		for {
			l := 2*i + 1
			if l >= len(h) {
				break
			}
			m := l
			if r := l + 1; r < len(h) && less(h[r], h[l]) {
				m = r
			}
			if !less(h[m], h[i]) {
				break
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
	}
	for i, r := range runs {
		if len(r) > 0 {
			push(mergeCursor{run: i})
		}
	}
	for len(h) > 0 {
		c := h[0]
		out = append(out, runs[c.run][c.pos])
		c.pos++
		if c.pos < len(runs[c.run]) {
			h[0] = c
			siftDown()
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
			siftDown()
		}
	}
	return out
}

// Values iterates the decoded values of one reduce group. It decodes
// lazily so the raw (metered) bytes are what travelled through the
// shuffle. The backing store is an explicit [][]byte (NewValues), a
// window of the sorted pair slice (GroupIterate), or a key group of a
// map task's sort buffer (the combine pass); the latter two let the group
// loop allocate nothing per group. A combiner's Values, and the bytes its
// values decode from, are valid only during its Reduce call: the sort
// buffer reuses both.
type Values struct {
	decode ValueDecoder
	raw    [][]byte
	pairs  []Pair
	arena  *kvArena
	meta   []kvMeta
	i      int
}

// NewValues builds an iterator over encoded values.
func NewValues(decode ValueDecoder, raw [][]byte) *Values {
	return &Values{decode: decode, raw: raw}
}

// Next returns the next value, or ok=false when exhausted.
func (v *Values) Next() (Value, bool, error) {
	var enc []byte
	switch {
	case v.meta != nil:
		if v.i >= len(v.meta) {
			return nil, false, nil
		}
		enc = v.arena.val(v.meta[v.i])
	case v.pairs != nil:
		if v.i >= len(v.pairs) {
			return nil, false, nil
		}
		enc = v.pairs[v.i].Val
	default:
		if v.i >= len(v.raw) {
			return nil, false, nil
		}
		enc = v.raw[v.i]
	}
	val, err := v.decode(enc)
	if err != nil {
		return nil, false, err
	}
	v.i++
	return val, true, nil
}

// Each applies fn to every remaining value.
func (v *Values) Each(fn func(Value) error) error {
	for {
		val, ok, err := v.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if err := fn(val); err != nil {
			return err
		}
	}
}

// Len returns the total number of values in the group.
func (v *Values) Len() int {
	if v.meta != nil {
		return len(v.meta)
	}
	if v.pairs != nil {
		return len(v.pairs)
	}
	return len(v.raw)
}

// GroupIterate walks a sorted pair slice group by group, invoking fn once
// per distinct key with an iterator over that key's values.
func GroupIterate(sorted []Pair, decode ValueDecoder, fn func(key string, values *Values) error) error {
	return GroupIterateBy(sorted, decode, nil, fn)
}

// GroupIterateBy groups by groupKey(key) (identity when nil): adjacent
// pairs whose group keys match form one reduce group, with values in
// full-key sorted order — the grouping-comparator semantics behind
// secondary sort. fn receives the group's first full key.
func GroupIterateBy(sorted []Pair, decode ValueDecoder, groupKey func(string) string, fn func(key string, values *Values) error) error {
	i := 0
	for i < len(sorted) {
		j := i + 1
		if groupKey == nil {
			for j < len(sorted) && sorted[j].Key == sorted[i].Key {
				j++
			}
		} else {
			g := groupKey(sorted[i].Key)
			for j < len(sorted) && groupKey(sorted[j].Key) == g {
				j++
			}
		}
		if err := fn(sorted[i].Key, &Values{decode: decode, pairs: sorted[i:j]}); err != nil {
			return err
		}
		i = j
	}
	return nil
}
