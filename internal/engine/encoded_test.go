package engine

import (
	"bytes"
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"dmcs/internal/dmcs"
	"dmcs/internal/graph"
)

// testEnc is a stand-in wire encoding: enough of the result that two
// different results never encode alike.
func testEnc(res *dmcs.Result) []byte {
	b := strconv.AppendFloat(nil, res.Score, 'g', -1, 64)
	for _, u := range res.Community {
		b = strconv.AppendInt(append(b, ' '), int64(u), 10)
	}
	return b
}

// TestSearchEncodedMemoLifetime walks one cache slot through its life:
// computed (no bytes, enc not called), first hit (enc once, bytes
// attached), later hits (the attached bytes, enc not called again, with
// or without an enc), result replaced (bytes dropped), slot recycled by
// eviction (bytes dropped).
func TestSearchEncodedMemoLifetime(t *testing.T) {
	e := New(smallQueryEngineGraph(4, 40), Options{Workers: 1, CacheSize: 1})
	ctx := context.Background()
	calls := 0
	enc := func(res *dmcs.Result) []byte { calls++; return testEnc(res) }
	qa, qb := Query{Nodes: []graph.Node{0}}, Query{Nodes: []graph.Node{40}}
	slot := func() *cacheEntry { return &e.cache.shards[0].entries[0] }

	res, wire, err := e.SearchEncoded(ctx, qa, enc)
	if err != nil || wire != nil || calls != 0 {
		t.Fatalf("computed answer: wire %q, %d enc calls, err %v; want nil, 0, nil", wire, calls, err)
	}
	for i := 0; i < 3; i++ {
		again, wire, err := e.SearchEncoded(ctx, qa, enc)
		if err != nil || again != res || calls != 1 || !bytes.Equal(wire, testEnc(res)) {
			t.Fatalf("hit %d: res %p (want %p), wire %q, %d enc calls, err %v", i, again, res, wire, calls, err)
		}
		if len(wire) != cap(wire) || &wire[0] != &slot().wire[0] {
			t.Fatalf("hit %d: wire is not the entry's exact-size copy (len %d cap %d)", i, len(wire), cap(wire))
		}
	}
	before := e.Stats().CacheHits
	if plain, err := e.Search(ctx, qa); err != nil || plain != res || e.Stats().CacheHits != before+1 {
		t.Fatalf("Search on a key with attached bytes: res %p err %v, want a hit on %p", plain, err, res)
	}
	if !raceEnabled {
		if a := testing.AllocsPerRun(200, func() { _, _ = e.Search(ctx, qa) }); a != 0 {
			t.Fatalf("Search hit on an entry holding bytes allocates %.1f, want 0", a)
		}
		if a := testing.AllocsPerRun(200, func() { _, _, _ = e.SearchEncoded(ctx, qa, testEnc) }); a != 0 {
			t.Fatalf("memoised SearchEncoded hit allocates %.1f, want 0", a)
		}
	}

	// The key's result is replaced: the old bytes must not answer for it.
	other := &dmcs.Result{Community: []graph.Node{0, 1, 2}, Score: 0.25}
	key := []byte(slot().key)
	e.cache.add(hashKey(key), key, other)
	if slot().wire != nil {
		t.Fatal("replacing an entry's result kept its encoding")
	}
	// A first hit that probed before the replacement attaches after it.
	e.cache.attach(hashKey(key), key, res, testEnc(res))
	if slot().wire != nil {
		t.Fatal("an encoding of the replaced result attached to its successor")
	}
	if got, wire, _ := e.SearchEncoded(ctx, qa, enc); got != other || calls != 2 || !bytes.Equal(wire, testEnc(other)) {
		t.Fatalf("after replacement: res %p (want %p), wire %q, %d enc calls", got, other, wire, calls)
	}

	// Another key takes the one slot: a recycled slot starts without bytes.
	if _, wire, _ := e.SearchEncoded(ctx, qb, enc); wire != nil || slot().wire != nil {
		t.Fatalf("eviction kept the evicted entry's encoding: returned %q, slot holds %q", wire, slot().wire)
	}
	if resB, wire, _ := e.SearchEncoded(ctx, qb, enc); !bytes.Equal(wire, testEnc(resB)) || calls != 3 {
		t.Fatalf("first hit after eviction: wire %q, %d enc calls", wire, calls)
	}
	if _, wire, _ := e.SearchEncoded(ctx, qa, enc); wire != nil {
		t.Fatalf("evicted key came back with bytes %q; it was recomputed", wire)
	}

	// An enc that has no encoding for the result attaches nothing.
	if _, wire, _ := e.SearchEncoded(ctx, qa, func(*dmcs.Result) []byte { return nil }); wire != nil || slot().wire != nil {
		t.Fatalf("nil encoding was attached or returned: %q / %q", wire, slot().wire)
	}
}

// TestSearchEncodedBytesBelongToResult races SearchEncoded against Apply
// toggling an edge of the queried component, so the key's version — and
// the result under it — keeps changing: every returned encoding must be
// the encoding of the result returned with it. Run under -race.
func TestSearchEncodedBytesBelongToResult(t *testing.T) {
	e := New(smallQueryEngineGraph(4, 40), Options{CacheSize: 4})
	ctx := context.Background()
	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			q := Query{Nodes: []graph.Node{graph.Node(r % 2)}}
			memoised := 0
			for i := 0; !stop.Load() || i < 200; i++ {
				res, wire, err := e.SearchEncoded(ctx, q, testEnc)
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				if wire != nil {
					memoised++
					if !bytes.Equal(wire, testEnc(res)) {
						t.Errorf("reader %d: bytes %q returned with a result encoding as %q", r, wire, testEnc(res))
						return
					}
				}
			}
			if memoised == 0 {
				t.Errorf("reader %d never saw memoised bytes", r)
			}
		}(r)
	}
	for i := 0; i < 300; i++ {
		var b Batch
		if i%2 == 0 {
			b.RemoveEdge(0, 1)
		} else {
			b.AddEdge(0, 1)
		}
		if _, err := e.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
}
