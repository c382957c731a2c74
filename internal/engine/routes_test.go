package engine

import (
	"context"
	"errors"
	"testing"
	"time"

	"dmcs/internal/dmcs"
	"dmcs/internal/faultinject"
	"dmcs/internal/graph"
)

// routeOutcome is one way a computed query can end, and what it must
// leave in Stats on whichever route it took.
type routeOutcome struct {
	name     string
	timeout  time.Duration          // the query's Options.Timeout
	holdSlot bool                   // the one worker slot stays taken: the query can only queue
	inject   *faultinject.Injection // armed at EnginePeel for the query's own peel
	cancel   bool                   // cancel the caller once its peel has started
	partial  bool                   // a TimedOut partial comes back, with no error
	isErr    func(error) bool       // nil: no error
	want     routeDelta
}

// routeDelta is what one query adds to Stats.
type routeDelta struct{ queries, computed, timedOut, errors uint64 }

// routeQueueBudget is the budget of every query that is meant to run out
// of it while queued; long enough for a joiner to park on a flight first.
const routeQueueBudget = 100 * time.Millisecond

func isPanicError(err error) bool {
	var pe *PanicError
	return errors.As(err, &pe)
}

var routeOutcomes = []routeOutcome{
	{name: "complete", want: routeDelta{queries: 1, computed: 1}},
	{name: "peel-timeout", timeout: time.Nanosecond, partial: true,
		want: routeDelta{queries: 1, computed: 1, timedOut: 1}},
	{name: "queue-timeout", timeout: routeQueueBudget, holdSlot: true,
		isErr: func(err error) bool { return err == ErrQueueTimeout },
		want:  routeDelta{queries: 1, timedOut: 1, errors: 1}},
	{name: "cancelled", inject: &faultinject.Injection{Latency: 50 * time.Millisecond}, cancel: true,
		isErr: func(err error) bool { return err == context.Canceled },
		want:  routeDelta{queries: 1, computed: 1, errors: 1}},
	{name: "panic", inject: &faultinject.Injection{Panic: "poisoned query"},
		isErr: isPanicError,
		want:  routeDelta{queries: 1, computed: 1, errors: 1}},
}

// settle runs call under oc's scenario — arm the peel injection, start
// the call, cancel it once its peel has started — and returns its answer
// once the engine has gone quiet. With oc.holdSlot the caller has taken
// the slot already; settle gives it back afterwards.
func settle(t *testing.T, e *Engine, oc routeOutcome, call func(context.Context) (*dmcs.Result, error)) (*dmcs.Result, error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if oc.inject != nil {
		faultinject.Set(faultinject.EnginePeel, *oc.inject)
	}
	type answer struct {
		res *dmcs.Result
		err error
	}
	done := make(chan answer, 1)
	go func() {
		res, err := call(ctx)
		done <- answer{res, err}
	}()
	if oc.cancel {
		waitFor(t, "the peel to start", func() bool { return faultinject.Hits(faultinject.EnginePeel) == 1 })
		cancel()
	}
	a := <-done
	if oc.holdSlot {
		<-e.sem
	}
	// An abandoned flight records its peel after its caller has left.
	waitFor(t, "the worker slot to come back", func() bool { return len(e.sem) == 0 })
	return a.res, a.err
}

// leaderRoute is a query that computes for itself; call is how it enters
// the engine.
func leaderRoute(cacheSize int, call func(*Engine, context.Context, Query) (*dmcs.Result, error)) func(*testing.T, *graph.Graph, routeOutcome) (*dmcs.Result, Stats, error) {
	return func(t *testing.T, g *graph.Graph, oc routeOutcome) (*dmcs.Result, Stats, error) {
		e := New(g, Options{Workers: 1, CacheSize: cacheSize})
		if oc.holdSlot {
			e.sem <- struct{}{}
		}
		q := Query{Nodes: []graph.Node{0}, Variant: dmcs.VariantNCA, Opts: dmcs.Options{Timeout: oc.timeout}}
		res, err := settle(t, e, oc, func(ctx context.Context) (*dmcs.Result, error) { return call(e, ctx, q) })
		return res, e.Stats(), err
	}
}

// joinerRoute is a query that joined a flight which then ran out of
// budget on its leader's clock, and so computes on its own. A 1ns budget
// runs out mid-peel, with the leader's peel held open long enough to
// join; any other budget runs out queued behind a slot this test holds,
// which also parks the joiner's own attempt until the scenario is set.
// The leader's own entries are taken out of the Stats returned.
func joinerRoute(t *testing.T, g *graph.Graph, oc routeOutcome) (*dmcs.Result, Stats, error) {
	e := New(g, Options{Workers: 1})
	q := Query{Nodes: []graph.Node{0}, Variant: dmcs.VariantNCA, Opts: dmcs.Options{Timeout: oc.timeout}}
	midPeel := oc.timeout == time.Nanosecond
	if midPeel {
		faultinject.Set(faultinject.EnginePeel, faultinject.Injection{Latency: 100 * time.Millisecond})
	} else {
		e.sem <- struct{}{}
		q.Opts.Timeout = routeQueueBudget
	}
	leader := make(chan error, 1)
	go func() {
		_, err := e.Search(context.Background(), q)
		leader <- err
	}()
	waitFor(t, "the leader's flight", func() bool { _, w := flightWaiters(e); return w == 1 })
	res, err := settle(t, e, oc, func(ctx context.Context) (*dmcs.Result, error) {
		joined := make(chan struct{})
		go func() {
			defer close(joined)
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
				if _, w := flightWaiters(e); w == 2 {
					break
				}
				if time.Now().After(deadline) {
					t.Error("the joiner never parked on the leader's flight")
					break
				}
			}
			// The flight fails with its joiner parked on it; then the
			// leader is out of the way and the joiner's attempt may go.
			if lerr := <-leader; !midPeel && lerr != ErrQueueTimeout {
				t.Errorf("leader: err = %v, want ErrQueueTimeout", lerr)
			}
			if !midPeel && !oc.holdSlot {
				<-e.sem
			}
		}()
		res, err := e.Search(ctx, q)
		<-joined
		return res, err
	})
	st := e.Stats()
	st.Queries--
	st.TimedOut--
	if midPeel {
		st.Computed--
	} else {
		st.Errors--
	}
	return res, st, err
}

// TestEveryRouteComputesOneWay is the invariant the single compute
// exists to hold: however a query reaches its peel — leading a flight,
// falling back from one onto its own clock, with the cache disabled, or
// leading inside a fused batch — each way the peel can end returns the
// same error and moves the same counters.
func TestEveryRouteComputesOneWay(t *testing.T) {
	g := smallQueryEngineGraph(2, 64)
	search := func(e *Engine, ctx context.Context, q Query) (*dmcs.Result, error) { return e.Search(ctx, q) }
	batch := func(e *Engine, ctx context.Context, q Query) (*dmcs.Result, error) {
		r := e.SearchBatch(ctx, []Query{q})[0]
		return r.Result, r.Err
	}
	routes := []struct {
		name string
		run  func(*testing.T, *graph.Graph, routeOutcome) (*dmcs.Result, Stats, error)
	}{
		{"search-leader", leaderRoute(0, search)},
		{"own-clock-joiner", joinerRoute},
		{"cache-disabled", leaderRoute(-1, search)},
		{"batch-leader", leaderRoute(0, batch)},
	}
	for _, oc := range routeOutcomes {
		for _, rt := range routes {
			t.Run(oc.name+"/"+rt.name, func(t *testing.T) {
				t.Cleanup(faultinject.Reset)
				res, st, err := rt.run(t, g, oc)
				switch {
				case oc.isErr != nil:
					if res != nil || !oc.isErr(err) {
						t.Errorf("got (%v, %v), want the %s error and no result", res, err, oc.name)
					}
				case err != nil:
					t.Fatalf("err = %v", err)
				case res.TimedOut != oc.partial:
					t.Errorf("TimedOut = %v, want %v", res.TimedOut, oc.partial)
				}
				if got := (routeDelta{st.Queries, st.Computed, st.TimedOut, st.Errors}); got != oc.want {
					t.Errorf("stats delta %+v, want %+v", got, oc.want)
				}
				if st.Collapsed != 0 || st.CacheHits != 0 {
					t.Errorf("collapsed=%d hits=%d, want 0/0: the query computed for itself", st.Collapsed, st.CacheHits)
				}
				if oc.name != "complete" && st.CacheEntries != 0 {
					t.Errorf("CacheEntries = %d: only a complete result may be cached", st.CacheEntries)
				}
			})
		}
	}
}
