// Package trace is the read side of the causal-tracing subsystem
// (internal/obs trace.go): byte-stable JSONL export/import of traced
// spans, per-trace tree reconstruction, the cross-layer critical path,
// blame attribution, and the waterfall that renders all three (the
// webui's /trace/<id> page and the tail of `mrhistory -analyze`).
// Where internal/history's report answers "where did this *job's* time
// go" from lifecycle events alone, this package answers it causally and
// across layers: a reduce attempt's critical path can bottom out in the
// HDFS write pipeline of one slow DataNode, and the blame table says so
// — node, layer and span kind.
//
// Exports are JSONL (one compact span object per line), persisted into
// HDFS next to the job-history file, and byte-identical across replays
// of the same seed — pinned by the golden-trace tests in internal/jobs.
package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/history"
	"repro/internal/obs"
)

// Path returns the HDFS path a job's trace export persists at, beside
// the job's history file.
func Path(jobID string) string { return history.Dir(jobID) + "/trace.jsonl" }

// Marshal renders spans as JSONL: one compact JSON object per line.
// Byte-stable: attr maps marshal with sorted keys and span order is the
// deterministic record order.
func Marshal(spans []obs.Span) ([]byte, error) {
	var buf bytes.Buffer
	for _, s := range spans {
		b, err := json.Marshal(s)
		if err != nil {
			return nil, err
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	return buf.Bytes(), nil
}

// ErrMalformed marks input that is not a forest of spans: a line that
// does not decode as a span, two spans sharing an ID, a span that is its
// own ancestor, or (for Waterfall) no traced span to root a tree at.
var ErrMalformed = errors.New("trace: malformed export")

// Parse decodes a JSONL trace export (the inverse of Marshal; blank
// lines are skipped). Every error wraps ErrMalformed.
func Parse(data []byte) ([]obs.Span, error) {
	var out []obs.Span
	for i, line := range bytes.Split(data, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var s obs.Span
		if err := json.Unmarshal(line, &s); err != nil {
			return nil, fmt.Errorf("%w: line %d: %w", ErrMalformed, i+1, err)
		}
		if len(s.Attrs) == 0 {
			s.Attrs = nil // what Marshal's omitempty reads back as
		}
		out = append(out, s)
	}
	if err := checkForest(out); err != nil {
		return nil, err
	}
	return out, nil
}

// checkForest rejects span sets Build cannot turn into trees: a span ID
// recorded twice, or a parent chain that loops back on itself (which
// would leave Build with no root to descend from).
func checkForest(spans []obs.Span) error {
	parent := make(map[obs.SpanID]obs.SpanID, len(spans))
	for _, s := range spans {
		if s.ID == 0 {
			continue
		}
		if _, dup := parent[s.ID]; dup {
			return fmt.Errorf("%w: span %d recorded twice", ErrMalformed, s.ID)
		}
		parent[s.ID] = s.Parent
	}
	// Walk each span's ancestry until it leaves the file (a root) or
	// meets a span already known to reach one; meeting the walk itself
	// is a cycle.
	const onWalk, rooted = 1, 2
	state := make(map[obs.SpanID]uint8, len(parent))
	for _, s := range spans {
		id := s.ID
		for id != 0 && state[id] == 0 {
			p, ok := parent[id]
			if !ok {
				break
			}
			state[id] = onWalk
			id = p
		}
		if state[id] == onWalk {
			return fmt.Errorf("%w: span %d is its own ancestor", ErrMalformed, id)
		}
		for id := s.ID; state[id] == onWalk; id = parent[id] {
			state[id] = rooted
		}
	}
	return nil
}

// Node is one span in a reconstructed trace tree, children in record
// order.
type Node struct {
	Span     obs.Span
	Children []*Node
}

// Build reconstructs the trees of one or more traces from a flat span
// list: spans with no parent — or whose parent never recorded — become
// roots, in record order. Untraced spans (no identity) are ignored.
func Build(spans []obs.Span) []*Node {
	byID := map[obs.SpanID]*Node{}
	var nodes []*Node
	for _, s := range spans {
		if s.ID == 0 {
			continue
		}
		n := &Node{Span: s}
		byID[s.ID] = n
		nodes = append(nodes, n)
	}
	var roots []*Node
	for _, n := range nodes {
		if p := byID[n.Span.Parent]; p != nil && p != n {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	return roots
}

// Step is one hop of a critical path: the span, and the self time blamed
// on it — the part of its extent not covered by its critical child (the
// leaf keeps its whole duration).
type Step struct {
	Span obs.Span
	Self time.Duration
}

// CriticalPath walks root to leaf, at each node descending into the
// child whose End is latest (ties break on record order, which is
// deterministic), and attributes to each step the time its critical
// child does not explain. This unifies internal/history's job-only
// critical path with the HDFS and serving spans hanging below attempts.
func CriticalPath(root *Node) []Step {
	var path []Step
	for n := root; n != nil; {
		var next *Node
		for _, c := range n.Children {
			if next == nil || c.Span.End > next.Span.End {
				next = c
			}
		}
		self := n.Span.Duration()
		if next != nil {
			self -= next.Span.Duration()
			if self < 0 {
				self = 0
			}
		}
		path = append(path, Step{Span: n.Span, Self: self})
		n = next
	}
	return path
}

// Layer returns the layer a span name belongs to: the dotted prefix
// ("mr", "hdfs", "yarn", "serving").
func Layer(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// Blame is self time aggregated over critical-path steps sharing a
// (layer, span kind, node) signature — the "who do I go yell at" table.
type Blame struct {
	Layer string
	Kind  string
	Node  string
	Self  time.Duration
	Steps int
}

// BlameTable aggregates critical-path steps into blame rows, largest
// self time first (ties by layer, kind, node for determinism).
func BlameTable(steps []Step) []Blame {
	type key struct{ layer, kind, node string }
	agg := map[key]*Blame{}
	var order []key
	for _, st := range steps {
		k := key{Layer(st.Span.Name), st.Span.Name, st.Span.Attrs["node"]}
		b := agg[k]
		if b == nil {
			b = &Blame{Layer: k.layer, Kind: k.kind, Node: k.node}
			agg[k] = b
			order = append(order, k)
		}
		b.Self += st.Self
		b.Steps++
	}
	out := make([]Blame, 0, len(order))
	for _, k := range order {
		out = append(out, *agg[k])
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		if out[i].Layer != out[j].Layer {
			return out[i].Layer < out[j].Layer
		}
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Node < out[j].Node
	})
	return out
}

// Summary describes one trace: its root span, extent and population.
type Summary struct {
	ID       obs.TraceID
	Root     obs.Span
	Spans    int
	Duration time.Duration
}

// Summaries groups a flat span list by trace and summarizes each: the
// root is the first recorded parentless span of the trace (its extent is
// the trace's duration). Order is first-recorded order.
func Summaries(spans []obs.Span) []Summary {
	idx := map[obs.TraceID]int{}
	var out []Summary
	for _, s := range spans {
		if s.Trace == "" {
			continue
		}
		i, ok := idx[s.Trace]
		if !ok {
			i = len(out)
			idx[s.Trace] = i
			out = append(out, Summary{ID: s.Trace})
		}
		out[i].Spans++
		if s.Parent == 0 && out[i].Root.ID == 0 {
			out[i].Root = s
			out[i].Duration = s.Duration()
		}
	}
	return out
}

// Slowest returns the n slowest traces, longest first (ties keep
// first-recorded order). n <= 0 returns all.
func Slowest(sums []Summary, n int) []Summary {
	out := append([]Summary(nil), sums...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Duration > out[j].Duration })
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// Collect returns every traced span in the registry, in record order —
// the whole-run export the webui trace pages read.
func Collect(reg *obs.Registry) []obs.Span {
	var out []obs.Span
	for _, s := range reg.Spans() {
		if s.Trace != "" {
			out = append(out, s)
		}
	}
	return out
}
