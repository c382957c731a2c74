package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
	"time"
)

// The budget table: for one operation of each kind, how much of its
// end-to-end time each layer owns. A layer's figure is the median, over
// the traced operations of that kind, of its self time — its span minus
// the span of the paired replay one layer down. Medians of differences do
// not add up to the median of the whole, so the remainder is shown as its
// own row instead of being folded into a layer.

var budgetLayers = []string{"bench", "server", "engine", "dmcs", "graph", "wal"}

// LayerShare is one layer's slice of a budget row.
type LayerShare struct {
	Layer string  `json:"layer"`
	US    float64 `json:"self_us"`
	Share float64 `json:"share"`
}

// BudgetRow is the budget of one kind of operation.
type BudgetRow struct {
	Case    string       `json:"case"`
	TotalUS float64      `json:"end_to_end_us"`
	Samples int          `json:"samples"`
	Layers  []LayerShare `json:"layers"` // budgetLayers order, then "unattributed"
}

func (r BudgetRow) share(layer string) float64 {
	for _, l := range r.Layers {
		if l.Layer == layer {
			return l.Share
		}
	}
	return 0
}

// budgetRow splits the rows' end-to-end span. The harness's own dispatch
// cost is the no-op-handler figure; below it, server = request - dispatch
// - engine span, engine = engine span - its children, dmcs = peel span -
// kernel replay, graph and wal are leaf spans.
func budgetRow(name string, rows []traceRow, dispatch time.Duration) BudgetRow {
	self := map[string]func(traceRow) time.Duration{
		"bench":  func(traceRow) time.Duration { return dispatch },
		"server": func(r traceRow) time.Duration { return r.req - dispatch - r.eng },
		"engine": func(r traceRow) time.Duration { return r.eng - r.dmcs - r.wal - applyGraph(r) },
		"dmcs":   func(r traceRow) time.Duration { return r.dmcs - peelGraph(r) },
		"graph":  func(r traceRow) time.Duration { return r.graph },
		"wal":    func(r traceRow) time.Duration { return r.wal },
	}
	out := BudgetRow{Case: name, Samples: len(rows)}
	if len(rows) == 0 {
		return out
	}
	out.TotalUS = median(durs(rows, time.Microsecond, func(r traceRow) time.Duration { return r.req }))
	rest := out.TotalUS
	for _, layer := range budgetLayers {
		v := median(durs(rows, time.Microsecond, self[layer]))
		out.Layers = append(out.Layers, LayerShare{layer, v, v / out.TotalUS})
		rest -= v
	}
	out.Layers = append(out.Layers, LayerShare{"unattributed", rest, rest / out.TotalUS})
	return out
}

// A row's graph span sits under the peel for queries and directly under
// the engine for applies.
func peelGraph(r traceRow) time.Duration {
	if r.class == classApply {
		return 0
	}
	return r.graph
}

func applyGraph(r traceRow) time.Duration { return r.graph - peelGraph(r) }

func printBudget(w io.Writer, rows []BudgetRow) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprint(tw, "operation\tend-to-end\tn")
	for _, l := range budgetLayers {
		fmt.Fprintf(tw, "\t%s", l)
	}
	fmt.Fprintln(tw, "\tunattributed")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.4g us\t%d", r.Case, r.TotalUS, r.Samples)
		for _, l := range r.Layers {
			fmt.Fprintf(tw, "\t%.1f%%", l.Share*100)
		}
		fmt.Fprintln(tw)
	}
	_ = tw.Flush()
}

// Prediction is one of the interaction predictions the benchmark's
// design rests on, checked against the traced run.
type Prediction struct {
	Claim string  `json:"claim"`
	Value float64 `json:"value"`
	Holds bool    `json:"holds"`
}

// predictions evaluates the design's claims about which layer owns which
// workload: the peel is absent from hot-read and is nearly all of a
// cold-peel whale; the server is most of a hot-read request and almost
// none of a whale; the write path is graph and WAL work, the remainder
// being the engine's snapshot restamp and publish.
func predictions(budget []BudgetRow, hotHitRatio float64, m metricSet) []Prediction {
	hot, island, whale := budget[0], budget[1], budget[2]
	// On hot-read the peel runs only for the requests that miss.
	peelOnHot := 0.0
	if hot.TotalUS > 0 {
		peelOnHot = (1 - hotHitRatio) * (island.share("dmcs") + island.share("graph")) * island.TotalUS / hot.TotalUS
	}
	peelOnWhale := whale.share("dmcs") + whale.share("graph")
	applyMS := m["engine.apply_ms"].Value
	children := 0.0
	if applyMS > 0 {
		children = (m["wal.append_us"].Value/1000 + m["graph.merge_csr_ms"].Value + m["graph.update_components_us"].Value/1000) / applyMS
	}
	return []Prediction{
		{"dmcs+graph self time < 5% of a hot-read request", peelOnHot, peelOnHot < 0.05},
		{"dmcs+graph self time > 90% of a cold-peel whale", peelOnWhale, peelOnWhale > 0.90},
		{"server self share > 50% of a hot-read request", hot.share("server"), hot.share("server") > 0.50},
		{"server self share < 1% of a cold-peel whale", whale.share("server"), whale.share("server") < 0.01},
		{"wal append + MergeCSR + UpdateComponents >= 80% of engine.Apply (else the rest is engine.apply_self_ms: snapshot restamp and publish)", children, children >= 0.80},
	}
}

func printPredictions(w io.Writer, ps []Prediction) {
	for _, p := range ps {
		verdict := "holds"
		if !p.Holds {
			verdict = "DOES NOT HOLD"
		}
		fmt.Fprintf(w, "  %-13s %.4f  %s\n", verdict, p.Value, p.Claim)
	}
}

// repeatRun runs the whole untraced set n times and prints, per
// end-to-end metric and workload, how far the sets disagree against the
// metric's bound: the worst set against the best, as a share of the
// best. It fails when any metric disagrees by more than its bound.
func repeatRun(n int, seed int64, phase time.Duration) error {
	type key struct{ workload, metric string }
	values := map[key][]float64{} // one value per set
	var keys []key
	for set := 0; set < n; set++ {
		for _, w := range workloadNames {
			fmt.Printf("== set %d/%d: %s ==\n", set+1, n, w)
			r, err := measure(os.Stdout, w, benchScale, seed, phase, setupRepeats)
			if err != nil {
				return fmt.Errorf("set %d, %s: %w", set+1, w, err)
			}
			for _, x := range sortedMetrics(r.metrics, endToEnd, w) {
				k := key{w, x.Name}
				if set == 0 {
					keys = append(keys, k)
				}
				values[k] = append(values[k], x.Value)
			}
		}
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload metric\tsets\tdisagreement\tbound\t")
	over := 0
	for _, k := range keys {
		s, _ := specOf(k.metric)
		lo, hi := values[k][0], values[k][0]
		for _, v := range values[k] {
			lo, hi = min(lo, v), max(hi, v)
		}
		best, worst := lo, hi
		if s.Better == higher {
			best, worst = hi, lo
		}
		gap := 0.0
		if best != 0 {
			gap = math.Abs(worst-best) / math.Abs(best)
		}
		flag := ""
		if gap > s.Bound {
			flag = "OVER"
			over++
		}
		fmt.Fprintf(tw, "%s %s\t%.5g\t%.4f\t%g\t%s\n", k.workload, k.metric, values[k], gap, s.Bound, flag)
	}
	_ = tw.Flush()
	if over > 0 {
		return fmt.Errorf("%d end-to-end metrics disagree between sets by more than their bound", over)
	}
	return nil
}
