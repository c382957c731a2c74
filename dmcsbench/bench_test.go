package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

// The smoke test of the benchmark itself: a tiny fixture and 200 ms
// phases, so `go test` in this directory holds the harness together in a
// few seconds. It asserts shape, not speed.

var tinyScale = scale{
	islands: 8, islandSize: 16, whaleN: 300, paperN: 300, twinN: 200,
	hotWhaleKeys: 8, coldWhaleKeys: 4, fpaSets: 8, ncaSets: 4, querySets: 8,
	tracedHot: 300, tracedCold: 100, tracedChurn: 300 * time.Millisecond,
}

const tinyPhase = 200 * time.Millisecond

// benchmarkJSON is the part of ../BENCHMARK.json the catalogue must agree
// with.
type benchmarkJSON struct {
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(blob, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if b.RunSeconds != fullPhaseSeconds {
		t.Errorf("run_seconds is %d, a full report's timed phase %d", b.RunSeconds, fullPhaseSeconds)
	}
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadNames[i] || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the harness", i, w.Name, workloadNames[i])
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the catalogue %d+%d", len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	for i, s := range endToEnd {
		j := b.EndToEnd[i]
		if j.Name != s.Name || j.Unit != s.Unit || j.Better != s.Better || j.Bound != s.Bound {
			t.Errorf("end_to_end[%d]: BENCHMARK.json %+v, catalogue %+v", i, j, s)
		}
		if s.Bound <= 0 || s.Bound > 0.25 {
			t.Errorf("%s: bound %g", s.Name, s.Bound)
		}
		if !nameRE.MatchString(s.Name) || seen[s.Name] {
			t.Errorf("bad or repeated name %q", s.Name)
		}
		seen[s.Name] = true
	}
	for i, s := range perLayer {
		j := b.PerLayer[i]
		if j.Name != s.Name || j.Unit != s.Unit || j.Better != s.Better {
			t.Errorf("per_layer[%d]: BENCHMARK.json %+v, catalogue %+v", i, j, s)
		}
		if !nameRE.MatchString(s.Name) || seen[s.Name] {
			t.Errorf("bad or repeated name %q", s.Name)
		}
		seen[s.Name] = true
	}
}

// Every workload runs, and its own traffic yields each end-to-end name
// exactly once, finite and above zero, with no failed operation and no
// failed check.
func TestEveryWorkloadEmitsEveryEndToEndMetric(t *testing.T) {
	for _, w := range workloadNames {
		run, err := measure(io.Discard, w, tinyScale, 1, tinyPhase, 1)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if len(run.metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics measured, the catalogue has %d", w, len(run.metrics), len(endToEnd))
		}
		line, err := driverLine(run.metrics, endToEnd, run.out)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		var r driverResult
		if err := json.Unmarshal(line, &r); err != nil {
			t.Fatalf("%s: result line: %v", w, err)
		}
		if len(r.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics on the result line, want %d", w, len(r.Metrics), len(endToEnd))
		}
		for name, v := range r.Metrics {
			if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Value <= 0 {
				t.Errorf("%s: %s = %v", w, name, v.Value)
			}
		}
		if !r.Correct || r.Attempted < 1 || r.Failed != 0 || run.out.checkFails != 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d check failures=%d", w, r.Correct, r.Attempted, r.Failed, run.out.checkFails)
		}
	}
}

// A floor is the first percentile of a group and the metric the median
// over groups; the plain figures describe all samples as they came.
func TestFloorMetric(t *testing.T) {
	var fast, slow []float64
	for i := 0; i < 101; i++ {
		fast = append(fast, 10+float64(i)) // 10..110: first percentile 11
		slow = append(slow, 30+float64(i)) // 30..130: first percentile 31
	}
	x := floorMetric("query_p50_us", [][]float64{fast, nil, slow})
	if x.Value != 21 || x.Groups != 2 || x.Samples != 202 {
		t.Errorf("floor %v over %d groups of %d samples, want 21 over 2 of 202", x.Value, x.Groups, x.Samples)
	}
	if x.Plain != 70 {
		t.Errorf("plain median %v, want 70", x.Plain)
	}
}

// The traced run yields every per-layer name, and the counts declared
// exact repeat exactly for a fixed seed.
func TestTracedRunEmitsEveryLayerMetricAndExactCountsRepeat(t *testing.T) {
	exact := []string{"dmcs.iterations_per_query", "wal.bytes_per_apply", "graph.reflooded_nodes_per_apply", "engine.invalidated_per_apply", "dmcs.fpa_f1"}
	var runs [2]metricSet
	for i := range runs {
		tr, err := traceAll(tinyScale, 1, "churn-open", 10)
		if err != nil {
			t.Fatal(err)
		}
		if tr.out.checkFails != 0 || tr.out.failed != 0 {
			t.Errorf("traced run %d: %d failed operations, %d failed checks", i, tr.out.failed, tr.out.checkFails)
		}
		if _, err := driverLine(tr.metrics, perLayer, tr.out); err != nil {
			t.Fatal(err)
		}
		if len(tr.metrics) != len(perLayer) {
			t.Errorf("traced run %d: %d metrics, catalogue has %d", i, len(tr.metrics), len(perLayer))
		}
		if len(tr.budget) != 4 {
			t.Fatalf("budget has %d rows", len(tr.budget))
		}
		for _, row := range tr.budget {
			if row.Samples == 0 || row.Layers[len(row.Layers)-1].Layer != "unattributed" {
				t.Errorf("budget row %q: %d samples, layers %+v", row.Case, row.Samples, row.Layers)
			}
		}
		runs[i] = tr.metrics
	}
	for _, name := range exact {
		a, b := runs[0][name].Value, runs[1][name].Value
		if a != b || a == 0 {
			t.Errorf("%s is declared exact but read %v then %v", name, a, b)
		}
	}

}
