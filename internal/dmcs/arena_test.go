package dmcs

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"dmcs/internal/graph"
)

// TestArenaReuseMatchesFresh drives one arena through a long mixed-query
// sequence — poisoning every buffer between queries — and checks each
// result against a fresh map-backed legacy search. Any read of stale (or
// poisoned) arena state shows up as a community/score mismatch.
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
			a.Poison() // worst legal arena state: garbage everywhere
			comp, err := queryComponentArena(a, csr, q)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			got, err := searchExtract(a, csr, q, comp, variant, opts)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			want, err := legacySearch(g, q, variant, opts)
			if err != nil {
				t.Fatalf("seed %d: legacy: %v", seed, err)
			}
			if !reflect.DeepEqual(got.Community, want.Community) || got.Score != want.Score ||
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
// first expired() call always consults the clock) and surface TimedOut.
func TestTimeoutStillTriggers(t *testing.T) {
	g := timeoutGraph(t)
	csr := graph.NewCSR(g)
	for _, tc := range []struct {
		variant Variant
		opts    Options
	}{
		{VariantNCA, Options{Timeout: time.Nanosecond}},
		{VariantFPA, Options{Timeout: time.Nanosecond}},
		{VariantFPA, Options{Timeout: time.Nanosecond, LayerPruning: true}},
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

// TestWarmArenaAllocs pins that groupLayersInto hands its grown
// layer-cursor buffer back to the arena: a warm arena's pruning search
// performs exactly two heap allocations — the Result and its Community
// slice; a third one is a buffer that leaked out of the arena.
func TestWarmArenaAllocs(t *testing.T) {
	g := smallQueryGraph(4, 80)
	csr := graph.NewCSR(g)
	a := NewArena()
	q := []graph.Node{3}
	comp, err := queryComponentArena(a, csr, q)
	if err != nil {
		t.Fatal(err)
	}
	comp = append([]graph.Node(nil), comp...) // stable storage across epochs
	for i := 0; i < 3; i++ {                  // warm every buffer
		if _, err := searchExtract(a, csr, q, comp, VariantFPA, Options{LayerPruning: true}); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := searchExtract(a, csr, q, comp, VariantFPA, Options{LayerPruning: true}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("warm-arena pruning search allocates %.1f times per run, want <= 2 (Result + Community)", allocs)
	}
}
