package trace_test

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

// fixture builds a two-trace registry: a fast trace, and a slow trace
// whose critical path runs job -> attempt -> pipeline (the slow leaf).
func fixture() *obs.Registry {
	r := obs.NewRegistry()

	slow := r.NewTrace(0)
	att := slow.NewChild()
	pipe := att.NewChild()
	shuf := att.NewChild()
	shuf.End("mr.shuffle", 10, 40, map[string]string{"attempt": "a1"})
	pipe.End("hdfs.write_pipeline", 10, 90, map[string]string{"node": "node3"})
	att.End("mr.reduce_attempt", 10, 100, map[string]string{"node": "node1"})
	slow.End("mr.job", 0, 120, map[string]string{"job": "job_x"})

	fast := r.NewTrace(time.Second)
	fast.End("serving.request", 0, 5, map[string]string{"op": "get"})
	return r
}

func TestBuildAndCriticalPath(t *testing.T) {
	r := fixture()
	spans := trace.Collect(r)
	if len(spans) != 5 {
		t.Fatalf("Collect = %d spans, want 5", len(spans))
	}
	roots := trace.Build(spans)
	if len(roots) != 2 {
		t.Fatalf("Build = %d roots, want 2", len(roots))
	}
	if roots[0].Span.Name != "mr.job" {
		t.Fatalf("first root = %s, want mr.job (record order)", roots[0].Span.Name)
	}
	steps := trace.CriticalPath(roots[0])
	var names []string
	for _, s := range steps {
		names = append(names, s.Span.Name)
	}
	want := []string{"mr.job", "mr.reduce_attempt", "hdfs.write_pipeline"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("critical path = %v, want %v", names, want)
	}
	// Self times: leaf keeps its duration; parents keep the rest.
	if steps[2].Self != 80 {
		t.Fatalf("pipeline self = %v, want 80ns", steps[2].Self)
	}
	if steps[1].Self != 10 { // 90 - 80
		t.Fatalf("attempt self = %v, want 10ns", steps[1].Self)
	}
	if steps[0].Self != 30 { // 120 - 90
		t.Fatalf("job self = %v, want 30ns", steps[0].Self)
	}
}

func TestBlameTable(t *testing.T) {
	r := fixture()
	roots := trace.Build(trace.Collect(r))
	blames := trace.BlameTable(trace.CriticalPath(roots[0]))
	if len(blames) != 3 {
		t.Fatalf("blame rows = %d, want 3", len(blames))
	}
	top := blames[0]
	if top.Kind != "hdfs.write_pipeline" || top.Layer != "hdfs" || top.Node != "node3" {
		t.Fatalf("top blame = %+v, want hdfs.write_pipeline on node3", top)
	}
}

func TestSummariesAndSlowest(t *testing.T) {
	r := fixture()
	sums := trace.Summaries(trace.Collect(r))
	if len(sums) != 2 {
		t.Fatalf("summaries = %d, want 2", len(sums))
	}
	slowest := trace.Slowest(sums, 1)
	if len(slowest) != 1 || slowest[0].Root.Name != "mr.job" {
		t.Fatalf("slowest = %+v, want the mr.job trace", slowest)
	}
	if slowest[0].Spans != 4 {
		t.Fatalf("slow trace spans = %d, want 4", slowest[0].Spans)
	}
}

func TestMarshalParseRoundTrip(t *testing.T) {
	r := fixture()
	spans := trace.Collect(r)
	data, err := trace.Marshal(spans)
	if err != nil {
		t.Fatal(err)
	}
	back, err := trace.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(spans) {
		t.Fatalf("round trip = %d spans, want %d", len(back), len(spans))
	}
	for i := range back {
		if back[i].Trace != spans[i].Trace || back[i].ID != spans[i].ID ||
			back[i].Parent != spans[i].Parent || back[i].Name != spans[i].Name {
			t.Fatalf("span %d changed across round trip: %+v vs %+v", i, back[i], spans[i])
		}
	}
	data2, err := trace.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Fatal("Marshal not byte-stable across a Parse round trip")
	}
}

func TestRenderers(t *testing.T) {
	r := fixture()
	roots := trace.Build(trace.Collect(r))
	steps := trace.CriticalPath(roots[0])
	spans := r.SpansTraced(roots[0].Span.Trace)
	page, err := trace.Waterfall(spans)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"trace " + string(roots[0].Span.Trace) + " — 4 span(s)",
		"|" + strings.Repeat("#", 60) + "| mr.job ",
		"|   mr.reduce_attempt",
		"|     hdfs.write_pipeline",
		trace.RenderCriticalPath(steps),
		trace.RenderBlame(trace.BlameTable(steps)),
	} {
		if !strings.Contains(page, want) {
			t.Fatalf("waterfall missing %q:\n%s", want, page)
		}
	}
	cp := trace.RenderCriticalPath(steps)
	if !strings.Contains(cp, "hdfs.write_pipeline") || !strings.Contains(cp, "self") {
		t.Fatalf("critical path render:\n%s", cp)
	}
	bl := trace.RenderBlame(trace.BlameTable(steps))
	if !strings.Contains(bl, "node3") {
		t.Fatalf("blame render:\n%s", bl)
	}
}

// cycleExport is two spans that are each other's parent: a parent chain
// with no root, which once sent the reader indexing an empty root list.
const cycleExport = `{"name":"a","start_ns":0,"end_ns":1,"trace":"t1","span":1,"parent":2}
{"name":"b","start_ns":0,"end_ns":1,"trace":"t1","span":2,"parent":1}
`

func TestParseRejectsMalformed(t *testing.T) {
	for name, data := range map[string]string{
		"cycle":       cycleExport,
		"self parent": `{"name":"a","trace":"t1","span":7,"parent":7}`,
		"long cycle": `{"name":"root","trace":"t1","span":1}
{"name":"a","trace":"t1","span":2,"parent":4}
{"name":"b","trace":"t1","span":3,"parent":2}
{"name":"c","trace":"t1","span":4,"parent":3}`,
		"duplicate id": `{"name":"a","trace":"t1","span":1}
{"name":"b","trace":"t1","span":1}`,
		"not json": "{\"name\":",
	} {
		if spans, err := trace.Parse([]byte(data)); !errors.Is(err, trace.ErrMalformed) {
			t.Errorf("%s: Parse = %d spans, err %v; want ErrMalformed", name, len(spans), err)
		}
	}
	// Untraced spans may repeat ID 0 and dangling parents are roots.
	ok := `{"name":"flat"}
{"name":"flat"}
{"name":"orphan","trace":"t1","span":5,"parent":99}`
	if _, err := trace.Parse([]byte(ok)); err != nil {
		t.Fatalf("well-formed export rejected: %v", err)
	}
}

// TestWaterfallNoRoot hands the renderer cyclic spans directly
// (bypassing Parse): it must error, not index an empty root list.
func TestWaterfallNoRoot(t *testing.T) {
	cycle := []obs.Span{
		{Name: "a", Trace: "t1", ID: 1, Parent: 2},
		{Name: "b", Trace: "t1", ID: 2, Parent: 1},
	}
	for _, in := range [][]obs.Span{nil, cycle, {{Name: "flat"}}} {
		if _, err := trace.Waterfall(in); !errors.Is(err, trace.ErrMalformed) {
			t.Fatalf("Waterfall(%d spans) err = %v, want ErrMalformed", len(in), err)
		}
	}
}

// FuzzTraceParse drives hostile exports through the whole read path —
// Parse, Build, CriticalPath, BlameTable, Waterfall — which must not
// panic, must fail only with ErrMalformed, and must read back exactly
// what Marshal writes for any export it accepts.
func FuzzTraceParse(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("..", "jobs", "testdata", "golden_wordcount_trace.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	fixed, err := trace.Marshal(trace.Collect(fixture()))
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{golden, fixed, []byte(cycleExport), nil} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spans, err := trace.Parse(data)
		if err != nil {
			if !errors.Is(err, trace.ErrMalformed) {
				t.Fatalf("untyped Parse error: %v", err)
			}
			return
		}
		out, err := trace.Marshal(spans)
		if err != nil {
			t.Fatal(err)
		}
		again, err := trace.Parse(out)
		if err != nil {
			t.Fatalf("Parse(Marshal(spans)): %v", err)
		}
		if !reflect.DeepEqual(spans, again) {
			t.Fatalf("round trip changed the spans:\n%+v\n%+v", spans, again)
		}
		for _, root := range trace.Build(spans) {
			trace.BlameTable(trace.CriticalPath(root))
		}
		if _, err := trace.Waterfall(spans); err != nil && !errors.Is(err, trace.ErrMalformed) {
			t.Fatalf("untyped Waterfall error: %v", err)
		}
	})
}
