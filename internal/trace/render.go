package trace

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/obs"
)

// timelineWidth is the character width of a gantt bar.
const timelineWidth = 60

// GanttBar renders one timelineWidth-character bar for [start, end] on a
// time axis beginning at origin and spanning span. Shared by the trace
// waterfall and the webui's /history/<jobid> attempt timeline.
func GanttBar(start, end, origin, span time.Duration) string {
	lo := int(timelineWidth * (start - origin) / span)
	hi := int(timelineWidth * (end - origin) / span)
	if lo < 0 {
		lo = 0
	}
	if lo > timelineWidth-1 {
		lo = timelineWidth - 1
	}
	if hi > timelineWidth {
		hi = timelineWidth
	}
	if hi <= lo {
		hi = lo + 1
	}
	return strings.Repeat(" ", lo) + strings.Repeat("#", hi-lo) +
		strings.Repeat(" ", timelineWidth-hi)
}

// Waterfall renders one trace's spans: a gantt waterfall of the span
// tree, then the cross-layer critical path and blame table descending
// from the longest root (a trace whose parent spans never recorded can
// have several). This is the webui's /trace/<id> page and the tail of
// `mrhistory -analyze`. Spans without identity get no tree node, so a
// list with none errors (wrapping ErrMalformed) rather than render an
// empty path.
func Waterfall(spans []obs.Span) (string, error) {
	roots := Build(spans)
	if len(roots) == 0 {
		return "", fmt.Errorf("%w: no traced span to root a tree at", ErrMalformed)
	}
	origin, last := spans[0].Start, spans[0].End
	for _, s := range spans {
		if s.Start < origin {
			origin = s.Start
		}
		if s.End > last {
			last = s.End
		}
	}
	width := last - origin
	if width <= 0 {
		width = 1
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s — %d span(s), %v\n\n", spans[0].Trace, len(spans),
		width.Round(time.Millisecond))
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		s := n.Span
		label := strings.Repeat("  ", depth) + s.Name
		fmt.Fprintf(&b, "|%s| %-34s %-10s %v\n",
			GanttBar(s.Start, s.End, origin, width), label, s.Attrs["node"],
			s.Duration().Round(time.Millisecond))
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	best := roots[0]
	for _, r := range roots {
		walk(r, 0)
		if r.Span.Duration() > best.Span.Duration() {
			best = r
		}
	}
	steps := CriticalPath(best)
	b.WriteByte('\n')
	b.WriteString(RenderCriticalPath(steps))
	b.WriteByte('\n')
	b.WriteString(RenderBlame(BlameTable(steps)))
	return b.String(), nil
}

// renderAttrKeys is the attr subset worth a line of terminal: identity
// and blame, not raw sizes.
var renderAttrKeys = []string{"job", "task", "attempt", "node", "block", "op", "table", "region", "server", "app", "container", "outcome", "result", "reason"}

func attrSuffix(attrs map[string]string) string {
	if len(attrs) == 0 {
		return ""
	}
	var parts []string
	for _, k := range renderAttrKeys {
		if v, ok := attrs[k]; ok {
			parts = append(parts, k+"="+v)
		}
	}
	if len(parts) == 0 {
		return ""
	}
	return "  [" + strings.Join(parts, " ") + "]"
}

// RenderCriticalPath renders the root-to-leaf critical path with per-step
// self time.
func RenderCriticalPath(steps []Step) string {
	var b strings.Builder
	b.WriteString("Critical path (root -> leaf, self = time not explained by the critical child):\n")
	for i, st := range steps {
		node := st.Span.Attrs["node"]
		if node == "" {
			node = "-"
		}
		fmt.Fprintf(&b, "  %d. %-24s %-10s span %10v  self %10v%s\n",
			i+1, st.Span.Name, node,
			st.Span.Duration().Round(time.Microsecond), st.Self.Round(time.Microsecond),
			attrSuffix(st.Span.Attrs))
	}
	return b.String()
}

// RenderBlame renders the aggregated blame table, biggest debtor first.
func RenderBlame(blames []Blame) string {
	var b strings.Builder
	b.WriteString("Blame (critical-path self time by layer/kind/node):\n")
	for _, bl := range blames {
		node := bl.Node
		if node == "" {
			node = "-"
		}
		fmt.Fprintf(&b, "  %-8s %-24s %-10s %10v  (%d step(s))\n",
			bl.Layer, bl.Kind, node, bl.Self.Round(time.Microsecond), bl.Steps)
	}
	return b.String()
}
