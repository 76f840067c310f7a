package obs

import (
	"testing"
	"time"
)

// spanFixture fills a registry the way a real run does: a handful of job
// spans buried under thousands of pipeline/attempt spans — the shape the
// webui timeline queries against.
func spanFixture(total, jobs int) *Registry {
	r := NewRegistry()
	for i := 0; i < total; i++ {
		name := "hdfs.write_pipeline"
		switch {
		case i%(total/max(jobs, 1)) == 0:
			name = "mr.job"
		case i%3 == 1:
			name = "mr.map_attempt"
		case i%3 == 2:
			name = "mr.reduce_attempt"
		}
		r.Span(name, time.Duration(i), time.Duration(i+1), nil)
	}
	return r
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// spansNamedScan is the pre-index implementation of SpansNamed: the
// oracle for TestSpansNamedIndexMatchesScan and the baseline for
// BenchmarkSpansNamed.
func (r *Registry) spansNamedScan(name string) []Span {
	var out []Span
	for _, s := range r.Spans() {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// TestSpansNamedIndexMatchesScan pins the index against the original
// linear scan on a mixed fixture.
func TestSpansNamedIndexMatchesScan(t *testing.T) {
	r := spanFixture(5000, 4)
	for _, name := range []string{"mr.job", "mr.map_attempt", "hdfs.write_pipeline", "absent"} {
		got, want := r.SpansNamed(name), r.spansNamedScan(name)
		if len(got) != len(want) {
			t.Fatalf("%s: index %d spans, scan %d", name, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].Name || got[i].Start != want[i].Start || got[i].End != want[i].End {
				t.Fatalf("%s[%d]: index %+v, scan %+v", name, i, got[i], want[i])
			}
		}
	}
}

// BenchmarkSpansNamed compares the by-name index with the full linear
// scan it replaced for the webui's hottest query: the few mr.job spans
// out of thousands recorded.
func BenchmarkSpansNamed(b *testing.B) {
	r := spanFixture(20000, 4)
	b.Run("indexed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if got := r.SpansNamed("mr.job"); len(got) == 0 {
				b.Fatal("no job spans")
			}
		}
	})
	b.Run("scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if got := r.spansNamedScan("mr.job"); len(got) == 0 {
				b.Fatal("no job spans")
			}
		}
	})
}
