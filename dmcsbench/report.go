package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

// The report schema lives here and nowhere else: the metric catalogue
// (name, unit, direction, regression bound, what it is per workload), the record
// every measured metric is reported as, the environment fingerprint, and
// the two output shapes (the human/JSON report of a full run, and the
// one-line result the benchmark driver reads).

const (
	lower  = "lower"
	higher = "higher"
)

var workloadNames = []string{"hot-read", "cold-peel", "churn-open", "paper-lfr"}

// spec declares one metric.
type spec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	What   string  // end-to-end only: what it is on each workload
}

// endToEnd is the end-to-end catalogue; BENCHMARK.json repeats it and the
// smoke test holds the two equal. Every workload's own traffic produces
// every name: the benchmark driver runs one workload per process and
// wants them all from each run. The two timings are floors (see
// floors.go): the median, over the distinct queries of the class, of what
// the query costs when the machine leaves it alone.
var endToEnd = []spec{
	{"setup_s", "s", lower, 0.25, "fixture generation + engine/WAL open + warm-up; median of the run's set-ups"},
	{"query_p50_us", "us", lower, 0.25, "the workload's query: an island hit (hot-read), an island miss (cold-peel), a warmed island key from its due time (churn-open), a root dmcs.Search FPA+pruning call (paper-lfr)"},
	{"costly_p50_ms", "ms", lower, 0.25, "the workload's expensive operation: a whale hit (hot-read), a whale peel (cold-peel), POST /apply from its due time (churn-open), a root dmcs.Search NCA call on the N=1000 twin (paper-lfr)"},
	{"ok_share", "share", higher, 0.06, "correct complete answers within the class limit (island 1 ms, whale 100 ms, apply 100 ms; none for library calls) / operations due, over the whole timed phase"},
	{"live_heap_mb", "MiB", lower, 0.25, "HeapInuse after forced GCs at the end of the timed phase"},
}

// perLayer is the traced run's catalogue; the module name before the dot
// is the layer.
var perLayer = []spec{
	{Name: "server.request_us", Unit: "us", Better: lower},
	{Name: "server.self_us", Unit: "us", Better: lower},
	{Name: "server.self_share", Unit: "share", Better: lower},
	{Name: "server.allocs_per_req", Unit: "count", Better: lower},
	{Name: "server.bytes_per_req", Unit: "B", Better: lower},
	{Name: "server.resp_bytes_per_req", Unit: "B", Better: lower},
	{Name: "server.request_p99_us", Unit: "us", Better: lower},
	{Name: "server.apply_request_ms", Unit: "ms", Better: lower},
	{Name: "server.shed_share", Unit: "share", Better: lower},
	{Name: "server.stale_share", Unit: "share", Better: lower},
	{Name: "server.http_5xx", Unit: "count", Better: lower},

	{Name: "engine.search_hit_ns", Unit: "ns", Better: lower},
	{Name: "engine.search_miss_us", Unit: "us", Better: lower},
	{Name: "engine.self_miss_us", Unit: "us", Better: lower},
	{Name: "engine.hit_ratio", Unit: "share", Better: higher},
	{Name: "engine.computed_per_query", Unit: "share", Better: lower},
	{Name: "engine.collapsed_share", Unit: "share", Better: higher},
	{Name: "engine.batch_us_per_query", Unit: "us", Better: lower},
	{Name: "engine.apply_ms", Unit: "ms", Better: lower},
	{Name: "engine.apply_self_ms", Unit: "ms", Better: lower},
	{Name: "engine.invalidated_per_apply", Unit: "count", Better: lower},
	{Name: "engine.retained_share", Unit: "share", Better: higher},
	{Name: "engine.timed_out", Unit: "count", Better: lower},
	{Name: "engine.errors", Unit: "count", Better: lower},

	{Name: "dmcs.fpa_island_us", Unit: "us", Better: lower},
	{Name: "dmcs.nca_island_us", Unit: "us", Better: lower},
	{Name: "dmcs.fpa_whale_ms", Unit: "ms", Better: lower},
	{Name: "dmcs.fpa_whale_par_ms", Unit: "ms", Better: lower},
	{Name: "dmcs.iterations_per_query", Unit: "count", Better: lower},
	{Name: "dmcs.ns_per_removal", Unit: "ns", Better: lower},
	{Name: "dmcs.allocs_per_search", Unit: "count", Better: lower},
	{Name: "dmcs.fpa_lfr_ms", Unit: "ms", Better: lower},
	{Name: "dmcs.fpa_pruned_lfr_ms", Unit: "ms", Better: lower},
	{Name: "dmcs.nca_lfr_ms", Unit: "ms", Better: lower},
	{Name: "dmcs.fpa_f1", Unit: "f1", Better: higher},
	{Name: "dmcs.nca_f1", Unit: "f1", Better: higher},

	{Name: "graph.pack_csr_ms", Unit: "ms", Better: lower},
	{Name: "graph.subcsr_extract_us", Unit: "us", Better: lower},
	{Name: "graph.bfs_whale_us", Unit: "us", Better: lower},
	{Name: "graph.articulation_whale_us", Unit: "us", Better: lower},
	{Name: "graph.view_remove_ns", Unit: "ns", Better: lower},
	{Name: "graph.merge_csr_ms", Unit: "ms", Better: lower},
	{Name: "graph.update_components_us", Unit: "us", Better: lower},
	{Name: "graph.reflooded_nodes_per_apply", Unit: "count", Better: lower},

	{Name: "wal.append_us", Unit: "us", Better: lower},
	{Name: "wal.sync_ms", Unit: "ms", Better: lower},
	{Name: "wal.bytes_per_apply", Unit: "B", Better: lower},
	{Name: "wal.syncs_per_apply", Unit: "count", Better: lower},
	{Name: "wal.checkpoint_ms", Unit: "ms", Better: lower},
	{Name: "wal.checkpoint_bytes", Unit: "B", Better: lower},
	{Name: "wal.recover_ms", Unit: "ms", Better: lower},

	{Name: "modularity.score_mismatches", Unit: "count", Better: lower},
	{Name: "modularity.density_recompute_us", Unit: "us", Better: lower},
	{Name: "harness.kcore_query_ms", Unit: "ms", Better: lower},
	{Name: "harness.ktruss_query_ms", Unit: "ms", Better: lower},

	{Name: "bench.dispatch_overhead_ns", Unit: "ns", Better: lower},
	{Name: "bench.gen_lateness_p99_us", Unit: "us", Better: lower},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: lower},
	{Name: "bench.samples", Unit: "count", Better: higher},
}

func specOf(name string) (spec, bool) {
	for _, list := range [][]spec{endToEnd, perLayer} {
		for _, s := range list {
			if s.Name == name {
				return s, true
			}
		}
	}
	return spec{}, false
}

// Metric is one reported number. A timing carries its value, the
// quartiles of its samples, and the highest percentile with at least ten
// samples beyond it; an end-to-end timing's Value is the median of its
// groups' floors (see floors.go) and Plain the plain median of the same
// samples, a per-layer timing's Value is the plain median. Counts and
// ratios carry Value and the number of events behind it.
type Metric struct {
	Name     string  `json:"name"`
	Unit     string  `json:"unit"`
	Workload string  `json:"workload"`
	Value    float64 `json:"value"`
	Plain    float64 `json:"plain_median,omitempty"`
	Groups   int     `json:"groups,omitempty"`
	Q1       float64 `json:"q1"`
	Q3       float64 `json:"q3"`
	TopPct   float64 `json:"top_percentile,omitempty"`
	Top      float64 `json:"top_value,omitempty"`
	Samples  int     `json:"samples"`
	Better   string  `json:"direction"`
	Bound    float64 `json:"bound,omitempty"`
}

// metricSet collects one run's metrics by name.
type metricSet map[string]Metric

func (m metricSet) put(x Metric) {
	s, ok := specOf(x.Name)
	if !ok {
		panic("dmcsbench: metric " + x.Name + " is not in the catalogue")
	}
	x.Unit, x.Better, x.Bound = s.Unit, s.Better, s.Bound
	m[x.Name] = x
}

// timing reports xs (already in the metric's unit) as median, quartiles
// and top percentile. An empty sample reports 0 with 0 samples.
func (m metricSet) timing(name string, xs []float64) {
	m.put(summarize(name, xs))
}

// pct reports a single percentile of xs as the metric's value.
func (m metricSet) pct(name string, xs []float64, p float64) {
	x := summarize(name, xs)
	if len(xs) > 0 {
		x.Value = quantile(xs, p) // summarize sorted xs in place
	}
	m.put(x)
}

func (m metricSet) value(name string, v float64, samples int) {
	m.put(Metric{Name: name, Value: v, Q1: v, Q3: v, Samples: samples})
}

func summarize(name string, xs []float64) Metric {
	x := Metric{Name: name, Samples: len(xs)}
	if len(xs) == 0 {
		return x
	}
	sort.Float64s(xs)
	x.Value, x.Q1, x.Q3 = quantile(xs, 0.5), quantile(xs, 0.25), quantile(xs, 0.75)
	if p := topPercentile(len(xs)); p > 0 {
		x.TopPct, x.Top = p*100, quantile(xs, p)
	}
	return x
}

// quantile interpolates linearly in sorted xs.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(i)
	return sorted[i]*(1-frac) + sorted[i+1]*frac
}

// topPercentile is the highest reported percentile that still has at
// least ten samples beyond it.
func topPercentile(n int) float64 {
	top := 0.0
	for _, p := range []float64{0.9, 0.99, 0.999, 0.9999} {
		if float64(n)*(1-p) >= 10 {
			top = p
		}
	}
	return top
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// Env is the environment fingerprint of a report.
type Env struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Clients    int    `json:"clients"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"git_commit"`
	Seed       int64  `json:"seed"`
	// The benchmark constants a comparison must hold equal on both sides.
	TimedPhaseS    float64 `json:"timed_phase_s"`
	ChurnQueryRate int     `json:"churn_queries_per_s"`
	ChurnApplyRate int     `json:"churn_applies_per_s"`
	IslandLimitMS  float64 `json:"island_limit_ms"`
	WhaleLimitMS   float64 `json:"whale_limit_ms"`
	ApplyLimitMS   float64 `json:"apply_limit_ms"`
	FsyncPolicy    string  `json:"fsync_policy"`
	DiskNote       string  `json:"disk_note"`
}

func fingerprint(seed int64, phase time.Duration) Env {
	return Env{
		CPUModel:       cpuModel(),
		NumCPU:         runtime.NumCPU(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		Clients:        numClients(),
		GoVersion:      runtime.Version(),
		Commit:         gitCommit(),
		Seed:           seed,
		TimedPhaseS:    phase.Seconds(),
		ChurnQueryRate: churnQueryRate,
		ChurnApplyRate: churnApplyRate,
		IslandLimitMS:  ms(limits[classIsland]),
		WhaleLimitMS:   ms(limits[classWhale]),
		ApplyLimitMS:   ms(limits[classApply]),
		FsyncPolicy:    "interval (50ms), checkpoint every 1024 applies",
		DiskNote:       "wal.* latencies are this sandbox's page cache, not a storage device's",
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown" // the driver's checkout is not a git repository
	}
	return strings.TrimSpace(string(out))
}

// Report is what a full run (`go run .`) writes as JSON.
type Report struct {
	Env         Env          `json:"env"`
	EndToEnd    []Metric     `json:"end_to_end"`
	PerLayer    []Metric     `json:"per_layer"`
	Budget      []BudgetRow  `json:"budget"`
	Predictions []Prediction `json:"predictions"`
	Attempted   int          `json:"attempted"`
	Failed      int          `json:"failed"`
	CheckFails  int          `json:"check_failures"`
}

// sortedMetrics lists a set in catalogue order.
func sortedMetrics(m metricSet, catalogue []spec, workload string) []Metric {
	var out []Metric
	for _, s := range catalogue {
		if x, ok := m[s.Name]; ok {
			x.Workload = workload
			out = append(out, x)
		}
	}
	return out
}

func printMetrics(w io.Writer, ms []Metric) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tworkload\tvalue\tunit\tq1..q3\ttop\tsamples\tbetter\tbound")
	for _, x := range ms {
		top, bound := "-", "-"
		if x.TopPct > 0 {
			top = fmt.Sprintf("p%g=%.4g", x.TopPct, x.Top)
		}
		if x.Bound > 0 {
			bound = fmt.Sprintf("%g", x.Bound)
		}
		quartiles := fmt.Sprintf("%.4g..%.4g", x.Q1, x.Q3)
		if x.Groups > 0 { // a floor: say what the samples were as they came
			quartiles = fmt.Sprintf("%.4g..%.4g..%.4g in %d groups", x.Q1, x.Plain, x.Q3, x.Groups)
		}
		fmt.Fprintf(tw, "%s\t%s\t%.5g\t%s\t%s\t%s\t%d\t%s\t%s\n",
			x.Name, x.Workload, x.Value, x.Unit, quartiles, top, x.Samples, x.Better, bound)
	}
	_ = tw.Flush()
}

func printCatalogue(w io.Writer) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workloads:\t"+strings.Join(workloadNames, " "))
	fmt.Fprintln(tw, "end-to-end (every workload)\tunit\tbetter\tbound\twhat")
	for _, s := range endToEnd {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%g\t%s\n", s.Name, s.Unit, s.Better, s.Bound, s.What)
	}
	fmt.Fprintln(tw, "per-layer (traced run)\tunit\tbetter\t\t")
	for _, s := range perLayer {
		fmt.Fprintf(tw, "%s\t%s\t%s\t\t\n", s.Name, s.Unit, s.Better)
	}
	_ = tw.Flush()
}

// driverResult is the last line a single-workload run prints.
type driverResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func driverLine(m metricSet, catalogue []spec, o outcome) ([]byte, error) {
	r := driverResult{Correct: o.checkFails == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]driverValue{}}
	for _, s := range catalogue {
		x, ok := m[s.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", s.Name)
		}
		r.Metrics[s.Name] = driverValue{Value: x.Value, Unit: s.Unit}
	}
	return json.Marshal(r)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
