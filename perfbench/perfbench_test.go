package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"testing"
)

// testScale shrinks each workload's episodes; async-chaos keeps its
// timed phase long enough that one fault heals before the next fires.
var testScale = map[string]float64{
	"sim-engine":   1.0 / 16,
	"async-chaos":  1,
	"tcp-loopback": 1.0 / 16,
}

func testWorkload(t *testing.T, name string) *workload {
	t.Helper()
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	t.Fatalf("no workload %q", name)
	return nil
}

// TestDeterministicCounters runs the simulated workloads twice with one
// seed, once traced, and requires bit-identical protocol counters: Stats
// (so msgs_per_update, staleness, drops and retransmissions), per-query
// Stats, final estimates and snapshot size.
func TestDeterministicCounters(t *testing.T) {
	for _, name := range []string{"sim-engine", "async-chaos"} {
		w := testWorkload(t, name)
		c := &config{seed: 7, scale: testScale[name]}
		chk := &checker{}
		seed := variantSeed(c.seed, 1)
		a := w.episode(c, seed, false, chk)
		b := w.episode(c, seed, false, chk)
		tr := w.episode(c, seed, true, chk)
		if chk.failed != 0 {
			t.Fatalf("%s: %d of %d checks failed: %v", name, chk.failed, chk.attempted, chk.misses)
		}
		if !a.fp.equal(&b.fp) {
			t.Errorf("%s: rerun diverged: %s", name, b.fp.diff(&a.fp))
		}
		if !a.fp.equal(&tr.fp) {
			t.Errorf("%s: traced run diverged: %s", name, tr.fp.diff(&a.fp))
		}
		if a.msgs != b.msgs || a.msgs != tr.msgs || a.updates != tr.updates {
			t.Errorf("%s: timed messages %d/%d/%d over updates %d/%d", name, a.msgs, b.msgs, tr.msgs, a.updates, tr.updates)
		}
		if name == "async-chaos" && (a.fp.stats.Dropped == 0 || a.fp.stats.Retransmitted == 0 || a.fp.stats.AvgStaleness() == 0) {
			t.Errorf("async-chaos: fault model inactive: %+v", a.fp.stats)
		}
	}
}

// TestSecondSeedCorrect runs every workload end to end on another seed,
// in both modes, and requires every correctness check to pass and every
// metric to be reported with its unit.
func TestSecondSeedCorrect(t *testing.T) {
	for _, w := range workloads {
		w.variants = min(w.variants, 4) // a run is whole cycles; keep them short
		for _, trace := range []bool{false, true} {
			c := &config{seed: 12345, seconds: 0.01, trace: trace, scale: testScale[w.name]}
			res := runWorkload(&w, c, io.Discard)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d checks failed", w.name, trace, res.Failed, res.Attempted)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, s := range want {
				m, ok := res.Metrics[s.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: missing %s", w.name, trace, s.name)
				case m.Unit != s.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace=%v: %s = %v %q", w.name, trace, s.name, m.Value, m.Unit)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v, must be positive", w.name, s.name, m.Value)
				}
			}
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricNames checks every metric name and unit against the
// benchmark file's grammar, and that BENCHMARK.json lists exactly the
// metrics the program reports.
func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range append(append([]metricSpec{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(s.name) || !unitRE.MatchString(s.unit) {
			t.Errorf("bad metric %q unit %q", s.name, s.unit)
		}
		if seen[s.name] {
			t.Errorf("metric %q listed twice", s.name)
		}
		seen[s.name] = true
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("BENCHMARK.json %s has %d metrics, program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("BENCHMARK.json %s[%d] = %s %s, program %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", bench.EndToEnd, endToEnd)
	same("per_layer", bench.PerLayer, perLayer)
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, program %d", len(bench.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bench.Workloads[i].Name != w.name {
			t.Errorf("BENCHMARK.json workload %d = %s, program %s", i, bench.Workloads[i].Name, w.name)
		}
	}
}
