package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	api "dmcs"
	"dmcs/internal/graph"
)

// paper-lfr is the paper's own experiment through the library's root
// API: no engine, no server, one goroutine. Each pass runs FPA with layer
// pruning (the options the server runs, and the call in which the
// per-call CSR pack weighs most) over its query sets and, on the N=1000
// twin, NCA over its own. Plain FPA and the F1 figures are the traced
// pass's.

// paperVariant is one of the measured calls.
type paperVariant struct {
	name    string
	variant api.Variant
	opts    api.Options
	twin    bool
}

var (
	paperFPA = paperVariant{"FPA+pruning", api.VariantFPA, api.Options{LayerPruning: true}, false}
	paperNCA = paperVariant{"NCA", api.VariantNCA, api.Options{}, true}

	// timedVariants are the timed loop's two calls; tracedVariants the
	// traced pass's, in the order of its per-layer metrics: plain FPA too.
	timedVariants  = []paperVariant{paperFPA, paperNCA}
	tracedVariants = []paperVariant{{"FPA", api.VariantFPA, api.Options{}, false}, paperFPA, paperNCA}

	// passOrder is one pass of the timed loop, as indexes into
	// timedVariants: the FPA sets go round twice, before and after the NCA
	// sets. A 1.5 ms call needs more repeats than a 45 ms one to be caught
	// on a quiet machine, and NCA takes most of the pass as it is.
	passOrder = []int{0, 1, 0}
)

func (f *paperFixture) caseOf(v paperVariant) *lfrCase {
	if v.twin {
		return f.twin
	}
	return f.big
}

type paperRun struct {
	// calls[v][i] are the times of timedVariants[v] on its query set i, in
	// ms, one per pass: a group of the floor statistic (see floors.go).
	calls [2][][]float64
	out   outcome
}

// runPaper makes passes — passOrder over the variants' query sets —
// until d has elapsed (but always one whole pass), or exactly `passes`
// passes when passes > 0. Every query's first result is checked: score
// equal to density modularity recomputed from the definition, community
// connected and containing the query.
func runPaper(fx *paperFixture, d time.Duration, passes int) *paperRun {
	r := &paperRun{}
	deadline := time.Now().Add(d)
	for vi, v := range timedVariants {
		r.calls[vi] = make([][]float64, len(fx.caseOf(v).queries))
	}
	for pass := 0; passes == 0 || pass < passes; pass++ {
		for _, vi := range passOrder {
			v := timedVariants[vi]
			c := fx.caseOf(v)
			for i, q := range c.queries {
				if passes == 0 && pass > 0 && !time.Now().Before(deadline) {
					return r
				}
				t0 := time.Now()
				res, err := api.Search(c.g, q, v.variant, v.opts)
				el := ms(time.Since(t0))
				r.out.attempted++
				if err == nil && !res.TimedOut && len(r.calls[vi][i]) == 0 {
					if err = checkResult(c.g, q, res); err != nil {
						r.out.checkFails++
					}
				}
				if err != nil || res.TimedOut {
					r.out.failed++
					continue
				}
				r.out.within++
				r.calls[vi][i] = append(r.calls[vi][i], el)
			}
		}
	}
	return r
}

// checkResult holds a library answer to the paper's definitions.
func checkResult(g *graph.Graph, q []graph.Node, res *api.Result) error {
	for _, u := range q {
		if !contains(res.Community, u) {
			return fmt.Errorf("community misses query node %d", u)
		}
	}
	if want := api.DensityModularityOf(g, res.Community); math.Abs(want-res.Score) > 1e-9 {
		return fmt.Errorf("score %v, density modularity from the definition %v", res.Score, want)
	}
	if !connected(g, res.Community) {
		return fmt.Errorf("community of %d nodes is not connected", len(res.Community))
	}
	return nil
}

// connected reports whether the subgraph induced by the sorted set is
// connected.
func connected(g *graph.Graph, set []graph.Node) bool {
	if len(set) == 0 {
		return false
	}
	seen := map[graph.Node]bool{set[0]: true}
	queue := []graph.Node{set[0]}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, w := range g.Neighbors(u) {
			if !seen[w] && contains(set, w) {
				seen[w] = true
				queue = append(queue, w)
			}
		}
	}
	return len(seen) == len(set)
}

// metricsInto reports the run: a pruned FPA call is the workload's query,
// an NCA call its costly operation.
func (r *paperRun) metricsInto(m metricSet) {
	fpa := floorMetric("", r.calls[0])
	m.put(fpa.as("query_p50_us", 0.001))
	m.put(floorMetric("costly_p50_ms", r.calls[1]))
	m.value("ok_share", r.out.okShare(), r.out.attempted)
}

// interquartileMean averages the middle half of xs. F1 per query set is
// bimodal (the community is either found or largely missed), so the
// median jumps between the modes from seed to seed and the mean follows
// the outliers; the middle half's mean does neither.
func interquartileMean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	s = s[len(s)/4 : len(s)-len(s)/4]
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// setupPaper is one set-up of paper-lfr: both LFR graphs, their query
// sets, and a few calls per variant so the pooled arenas are grown.
func setupPaper(sz scale, bigSets, twinSets int, seed int64) (*paperFixture, error) {
	fx, err := newPaperFixture(sz, bigSets, twinSets, seed)
	if err != nil {
		return nil, err
	}
	for _, v := range tracedVariants {
		c := fx.caseOf(v)
		for _, q := range c.queries[:min(4, len(c.queries))] {
			if _, err := api.Search(c.g, q, v.variant, v.opts); err != nil {
				return nil, fmt.Errorf("warm-up %s: %w", v.name, err)
			}
		}
	}
	return fx, nil
}
