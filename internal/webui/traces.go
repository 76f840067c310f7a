package webui

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

// TracesPage lists every recorded trace, slowest first — the index the
// "trace the straggler" lab starts from.
func TracesPage(reg *obs.Registry) string {
	sums := trace.Slowest(trace.Summaries(trace.Collect(reg)), 0)
	if len(sums) == 0 {
		return "no traces recorded yet\n"
	}
	var b strings.Builder
	b.WriteString("traces, slowest first (open /trace/<id>):\n")
	for _, s := range sums {
		name := s.Root.Name
		if name == "" {
			name = "(root span not recorded)"
		}
		fmt.Fprintf(&b, "  %-22s %-20s %10v  %3d span(s)%s\n",
			s.ID, name, s.Duration.Round(time.Millisecond), s.Spans,
			attrSummary(s.Root.Attrs))
	}
	return b.String()
}

// attrSummary picks the identity attr worth showing on an index line.
func attrSummary(attrs map[string]string) string {
	for _, k := range []string{"job", "op", "block", "region", "app"} {
		if v, ok := attrs[k]; ok && v != "" {
			return "  " + k + "=" + v
		}
	}
	return ""
}

// TraceWaterfallPage renders one live trace with trace.Waterfall: the
// gantt waterfall of its span tree, then the cross-layer critical path
// and blame table. Unknown IDs error — the handler turns that into a 404.
func TraceWaterfallPage(reg *obs.Registry, id string) (string, error) {
	spans := reg.SpansTraced(obs.TraceID(id))
	if len(spans) == 0 {
		return "", fmt.Errorf("webui: unknown trace %q", id)
	}
	return trace.Waterfall(spans)
}
