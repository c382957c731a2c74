package dmcs

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"dmcs/internal/graph"
)

// diffRandomGraph builds a connected-ish random graph; weighted draws a
// weight in (0.5, 3) per edge, otherwise the graph is plain unweighted.
func diffRandomGraph(rng *rand.Rand, n int, p float64, weighted bool) *graph.Graph {
	b := graph.NewBuilder(n)
	// a random spanning path keeps most of the graph in one component so
	// the searches have something to peel
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		u, v := graph.Node(perm[i-1]), graph.Node(perm[i])
		if weighted {
			b.SetWeight(u, v, 0.5+2.5*rng.Float64())
		} else {
			b.AddEdge(u, v)
		}
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				if weighted {
					b.SetWeight(graph.Node(u), graph.Node(v), 0.5+2.5*rng.Float64())
				} else {
					b.AddEdge(graph.Node(u), graph.Node(v))
				}
			}
		}
	}
	return b.Build()
}

// TestArenaReuseMatchesFresh drives one arena through a long mixed-query
// sequence — poisoning every buffer between queries — and checks each
// result against the same search on a fresh arena (which the differential
// tests tie to the reference peel). Any read of stale (or poisoned)
// arena state shows up as a community/score mismatch.
func TestArenaReuseMatchesFresh(t *testing.T) {
	variants := []Variant{VariantFPA, VariantNCA, VariantNCADR, VariantFPADMG}
	for _, weighted := range []bool{false, true} {
		rng := rand.New(rand.NewSource(17))
		g := diffRandomGraph(rng, 70, 0.07, weighted)
		csr := graph.NewCSR(g)
		a := NewArena()
		trials := 0
		for seed := 0; seed < 12; seed++ {
			qs := 1 + seed%3
			q := make([]graph.Node, 0, qs)
			for _, u := range rng.Perm(70)[:qs] {
				q = append(q, graph.Node(u))
			}
			if !graph.SameComponent(g, q) {
				continue
			}
			variant := variants[seed%len(variants)]
			opts := Options{LayerPruning: seed%2 == 0 && (variant == VariantFPA || variant == VariantFPADMG)}
			search := func(a *Arena) *Result {
				comp, err := queryComponentArena(a, csr, q)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				r, err := searchExtract(a, csr, q, comp, variant, opts)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				return r
			}
			a.Poison() // worst legal arena state: garbage everywhere
			got, want := search(a), search(NewArena())
			if !reflect.DeepEqual(got.Community, want.Community) || math.Float64bits(got.Score) != math.Float64bits(want.Score) ||
				got.Iterations != want.Iterations {
				t.Fatalf("seed %d (%v weighted=%v): poisoned-arena result diverged\n got %v (%v)\nwant %v (%v)",
					seed, variant, weighted, got.Community, got.Score, want.Community, want.Score)
			}
			trials++
		}
		if trials < 6 {
			t.Fatalf("fixture too disconnected: only %d trials ran", trials)
		}
	}
}

// TestSearchSubMatchesSearchCSR proves the engine's prebuilt-sub path and
// the pooled SearchCSR path return identical results, including on a
// component that spans the whole snapshot (the WrapCSR identity path).
func TestSearchSubMatchesSearchCSR(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := diffRandomGraph(rng, 60, 0.1, true)
	csr := graph.NewCSR(g)
	a := NewArena()
	for _, q := range [][]graph.Node{{0}, {3, 7}, {59}} {
		comp, err := queryComponentArena(NewArena(), csr, q)
		if err != nil {
			t.Fatal(err)
		}
		compCopy := append([]graph.Node(nil), comp...)
		var sub *graph.SubCSR
		if len(compCopy) == csr.NumNodes() {
			sub = graph.WrapCSR(csr)
		} else {
			sub = graph.NewSubCSR(csr, compCopy)
		}
		for _, variant := range []Variant{VariantFPA, VariantNCA} {
			want, err := SearchCSR(csr, q, variant, Options{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := SearchSub(a, sub, q, compCopy, variant, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Community, want.Community) || got.Score != want.Score {
				t.Fatalf("q=%v %v: SearchSub (%v, %v) != SearchCSR (%v, %v)",
					q, variant, got.Community, got.Score, want.Community, want.Score)
			}
		}
	}
}

// timeoutGraph is big enough that every variant performs thousands of
// removals — far more than the 64-removal deadline polling stride.
func timeoutGraph(t *testing.T) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(2))
	return diffRandomGraph(rng, 3000, 0.002, false)
}

// TestTimeoutStillTriggers pins the satellite contract of the amortized
// deadline poller: a tiny Timeout must still stop every variant (the
// first expired() call always consults the clock) and surface TimedOut,
// and so must a closed Cancel stop pruned FPA in phase 1, with the best
// inner prefix scored so far: connected, and holding the query.
func TestTimeoutStillTriggers(t *testing.T) {
	g := timeoutGraph(t)
	csr := graph.NewCSR(g)
	cancelled := make(chan struct{})
	close(cancelled)
	for _, tc := range []struct {
		variant Variant
		opts    Options
	}{
		{VariantNCA, Options{Timeout: time.Nanosecond}},
		{VariantFPA, Options{Timeout: time.Nanosecond}},
		{VariantFPA, Options{Timeout: time.Nanosecond, LayerPruning: true}},
		{VariantFPA, Options{Cancel: cancelled, LayerPruning: true}},
		{VariantFPADMG, Options{Timeout: time.Nanosecond}},
	} {
		r, err := SearchCSR(csr, []graph.Node{0}, tc.variant, tc.opts)
		if err != nil {
			t.Fatalf("%v: %v", tc.variant, err)
		}
		if !r.TimedOut {
			t.Errorf("%v pruning=%v: expected TimedOut under 1ns budget", tc.variant, tc.opts.LayerPruning)
		}
		if !containsAll(r.Community, 0) {
			t.Errorf("%v: timed-out community %v must still contain the query", tc.variant, r.Community)
		}
		if !isConnectedSet(g, r.Community) {
			t.Errorf("%v pruning=%v: timed-out community %v is not connected", tc.variant, tc.opts.LayerPruning, r.Community)
		}
	}
	// A generous budget must not report a timeout.
	r, err := SearchCSR(csr, []graph.Node{0}, VariantFPA, Options{Timeout: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if r.TimedOut {
		t.Error("FPA reported TimedOut under an hour-long budget")
	}
}

// TestThetaIndexClearAfterDrain: the Θ heap's position table is
// all-zero after a drain, both when the drain removes the whole layer and
// when it expires with every node still queued, so no later layer or
// query inherits a stale claim.
func TestThetaIndexClearAfterDrain(t *testing.T) {
	g := diffRandomGraph(rand.New(rand.NewSource(5)), 60, 0.1, false)
	csr := graph.NewCSR(g)
	comp, _ := csr.Component(0)
	sub := graph.NewSubCSR(csr, comp)
	cancelled := make(chan struct{})
	close(cancelled)
	for _, opts := range []Options{{}, {Cancel: cancelled}} {
		a := NewArena()
		a.Poison()
		a.pq.pos = a.pq.pos[:0] // as SearchSub starts a query
		s := newPeelState(a, sub, a.g.ViewAll(0, sub), comp, nil, opts)
		var layer []graph.Node
		for u := 1; u < sub.NumNodes(); u++ {
			layer = append(layer, graph.Node(u))
		}
		peelLayerTheta(s, layer)
		removed := len(layer)
		if opts.Cancel != nil {
			removed = 0
		}
		if len(s.trace) != removed {
			t.Fatalf("cancel=%v: drain removed %d nodes, want %d", opts.Cancel != nil, len(s.trace), removed)
		}
		if len(a.pq.items) != 0 {
			t.Fatalf("cancel=%v: %d items left queued", opts.Cancel != nil, len(a.pq.items))
		}
		for u, p := range a.pq.pos {
			if p != 0 {
				t.Fatalf("cancel=%v: pos[%d] = %d after the drain", opts.Cancel != nil, u, p)
			}
		}
	}
}

// TestCancelStillTriggers pins the unchanged per-removal cancellation
// cadence: a pre-closed Cancel channel stops the search immediately.
func TestCancelStillTriggers(t *testing.T) {
	g := timeoutGraph(t)
	csr := graph.NewCSR(g)
	done := make(chan struct{})
	close(done)
	start := time.Now()
	r, err := SearchCSR(csr, []graph.Node{0}, VariantNCA, Options{Cancel: done})
	if err != nil {
		t.Fatal(err)
	}
	if !r.TimedOut {
		t.Error("expected TimedOut on a closed Cancel channel")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("cancellation took %v to unwind", elapsed)
	}
}

// TestDeadlinePollerFirstCallChecks guards the poller's edge cases: the
// very first check consults the clock (so an already-expired deadline
// never admits a removal), and Cancel is polled on every call.
func TestDeadlinePollerFirstCallChecks(t *testing.T) {
	p := deadlinePoller{deadline: time.Now().Add(-time.Second)}
	if !p.check() {
		t.Error("first check must consult an already-expired deadline")
	}
	done := make(chan struct{})
	p2 := deadlinePoller{cancel: done, deadline: time.Now().Add(time.Hour)}
	for i := 0; i < 10; i++ {
		if p2.check() {
			t.Fatal("premature expiry")
		}
	}
	close(done)
	if !p2.check() {
		t.Error("cancel must be observed on the very next check")
	}
}

// TestWarmArenaAllocs pins that every FPA path hands its grown scratch
// back to the arena — the Layering's level starts among it: over
// {FPA, FPA-DMG} × {layer pruning, none} × {unweighted, weighted}, a warm
// arena's search performs at most two heap allocations, the Result and
// its Community slice; a third one is a buffer that leaked out of the
// arena.
func TestWarmArenaAllocs(t *testing.T) {
	unweighted := smallQueryGraph(4, 80)
	for _, g := range []*graph.Graph{unweighted, reweighted(unweighted, 7)} {
		csr := graph.NewCSR(g)
		a := NewArena()
		q := []graph.Node{3}
		comp, err := queryComponentArena(a, csr, q)
		if err != nil {
			t.Fatal(err)
		}
		comp = append([]graph.Node(nil), comp...) // stable storage across epochs
		for _, variant := range []Variant{VariantFPA, VariantFPADMG} {
			for _, pruning := range []bool{true, false} {
				opts := Options{LayerPruning: pruning}
				search := func() {
					if _, err := searchExtract(a, csr, q, comp, variant, opts); err != nil {
						t.Fatal(err)
					}
				}
				for i := 0; i < 3; i++ { // warm every buffer
					search()
				}
				if allocs := testing.AllocsPerRun(50, search); allocs > 2 {
					t.Errorf("weighted=%v %v pruning=%v: a warm-arena search allocates %.1f times per run, want <= 2 (Result + Community)",
						g.Weighted(), variant, pruning, allocs)
				}
			}
		}
	}
}
