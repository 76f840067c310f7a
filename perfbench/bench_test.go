package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// runTiny runs one workload once, in this process, at test size.
func runTiny(t *testing.T, workload string, traced, corrupt bool) rep {
	t.Helper()
	h := newHarness(workload, 7, traced)
	h.corrupt = corrupt
	if err := workloads[workload](h, tinySizes); err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return h.res
}

func workloadNames() []string {
	var names []string
	for name := range workloads {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// TestTinyWorkloads passes each workload through the benchmark's code
// path at test size: every checked op succeeds, the end-to-end numbers
// are populated, and a repeat of the seed reproduces the digest.
func TestTinyWorkloads(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			r := runTiny(t, name, false, false)
			if r.Attempted == 0 || r.Failed != 0 {
				t.Fatalf("attempted %d, failed %d: %v", r.Attempted, r.Failed, r.Problems)
			}
			if r.Ops == 0 || r.RunS <= 0 || r.SetupS <= 0 || r.InputMB <= 0 || r.OpP50US <= 0 || r.Allocs <= 0 {
				t.Fatalf("end-to-end numbers missing: %+v", r)
			}
			if again := runTiny(t, name, false, false); again.Digest != r.Digest {
				t.Fatalf("digest differs across repeats of one seed: %s vs %s", r.Digest, again.Digest)
			}
		})
	}
}

// TestCorruptedExpectationFails tampers with one expectation per
// workload: the oracle must count a failure rather than pass or abort.
func TestCorruptedExpectationFails(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			r := runTiny(t, name, false, true)
			if r.Failed == 0 || r.Attempted == 0 {
				t.Fatalf("corrupted expectation not detected: attempted %d, failed %d", r.Attempted, r.Failed)
			}
		})
	}
}

// TestTracedDigestMatchesUntraced shows the timing wrappers observe
// without perturbing: the traced run simulates exactly what the
// untraced run does, and reports every per-layer metric, with each host
// time actually measured.
func TestTracedDigestMatchesUntraced(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			plain := runTiny(t, name, false, false)
			traced := runTiny(t, name, true, false)
			if plain.Digest != traced.Digest {
				t.Fatalf("traced digest %s, untraced %s", traced.Digest, plain.Digest)
			}
			if traced.Failed != 0 {
				t.Fatalf("traced run failed checks: %v", traced.Problems)
			}
			for _, m := range perLayer {
				v, ok := traced.Layers[m.name]
				if m.name == "bench.trace_overhead_frac" {
					continue // computed by the parent from both runs
				}
				if !ok && !(m.name == "serial.mb_per_s" && name != "wordcount") {
					t.Errorf("per-layer metric %s missing", m.name)
				}
				if (m.unit == "s" || m.unit == "us") && v <= 0 {
					t.Errorf("host time %s = %v, want > 0", m.name, v)
				}
			}
		})
	}
}

// TestSummarise checks the printed result: exactly the declared metrics,
// and a run whose repetitions disagree on the digest is not correct.
func TestSummarise(t *testing.T) {
	base := rep{Workload: "serving", Seed: 1, SetupS: 1, RunS: 2, InputMB: 4, Ops: 10, OpP50US: 3, OpP99US: 9,
		AllocMB: 5, Allocs: 6, Attempted: 10, Digest: "d", Layers: map[string]float64{"sim.step_s": 1}}
	reps := []rep{base, base, base}
	res, _, err := summarise(reps, nil, []float64{1, 2, 3}, false)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted != 30 || len(res.Metrics) != len(endToEnd) {
		t.Fatalf("untraced result %+v", res)
	}
	if got := res.Metrics["ops_per_s"].Value; got != 5 {
		t.Fatalf("ops_per_s = %v, want 5", got)
	}
	tr := base
	tr.Traced, tr.RunS = true, 3
	res, _, err = summarise(reps, []rep{tr}, []float64{1, 2, 3}, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != len(perLayer) || res.Metrics["bench.trace_overhead_frac"].Value != 0.5 {
		t.Fatalf("traced result %+v", res)
	}
	bad := base
	bad.Digest = "other"
	if res, _, _ := summarise([]rep{base, bad}, nil, []float64{1, 1}, false); res.Correct {
		t.Fatal("digest mismatch across repetitions reported as correct")
	}
	bad = base
	bad.Failed = 1
	if res, _, _ := summarise([]rep{base, bad}, nil, []float64{1, 1}, false); res.Correct || res.Failed != 1 {
		t.Fatal("failed op reported as correct")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics the
// benchmark prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("workloads %v, benchmark has %v", names, workloadNames())
	}
	same := func(kind string, declared []struct{ Name, Unit string }, printed []metric) {
		if len(declared) != len(printed) {
			t.Errorf("%s: %d declared, %d printed", kind, len(declared), len(printed))
			return
		}
		for i, d := range declared {
			if d.Name != printed[i].name || d.Unit != printed[i].unit {
				t.Errorf("%s[%d]: declared %s (%s), printed %s (%s)", kind, i, d.Name, d.Unit, printed[i].name, printed[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
