package engine

import (
	"bytes"
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"dmcs/internal/graph"
)

// servingShapedGraph is dmcsbench's serving fixture in outline: islands
// ring+chord components of 64 nodes, then one whale-node component
// (random attachment plus ten random edges per node).
func servingShapedGraph(islands, whale int) *graph.Graph {
	const size = 64
	rng := rand.New(rand.NewSource(5))
	b := graph.NewBuilder(islands*size + whale)
	for base := 0; base < islands*size; base += size {
		for i := 0; i < size; i++ {
			b.AddEdge(graph.Node(base+i), graph.Node(base+(i+1)%size))
			b.AddEdge(graph.Node(base+i), graph.Node(base+(i+7)%size))
		}
	}
	for i := 1; i < whale; i++ {
		u := graph.Node(islands*size + i)
		b.AddEdge(u, graph.Node(islands*size+rng.Intn(i)))
		for k := 0; k < 10; k++ {
			b.AddEdge(u, graph.Node(islands*size+rng.Intn(whale)))
		}
	}
	return b.Build()
}

// chordBatch toggles the same 8 chords of island 100 off (even round)
// and on again (odd round).
func chordBatch(round int) Batch {
	var b Batch
	for k := 0; k < 8; k++ {
		u := graph.Node(100*64 + 5*k)
		if round%2 == 0 {
			b.RemoveEdge(u, u+7)
		} else {
			b.AddEdge(u, u+7)
		}
	}
	return b
}

// applyBytes is the mean heap allocation of one Apply of an 8-edge
// one-island batch, over 50 of them.
func applyBytes(t *testing.T, e *Engine) uint64 {
	t.Helper()
	const rounds = 50
	for r := 0; r < 2; r++ { // first calls may size lazily built state
		if _, err := e.Apply(chordBatch(r)); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for r := 0; r < rounds; r++ {
		if st, err := e.Apply(chordBatch(r)); err != nil || st.Invalidated != 1 {
			t.Fatalf("Apply: %+v, %v", st, err)
		}
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / rounds
}

// TestApplyBytesProportionalToBatch is the memory bound of the paged
// snapshot as a plain test: on a 32768-node, 257-component graph shaped
// like the serving benchmark's, an 8-edge batch inside one island
// allocates the one row page it touches plus the partition (compID and
// the member lists, still O(n): about 8 bytes a node) and the restamped
// component vectors — under 400 KB where the whole-CSR copy took 1.9 MB.
// Doubling the whale must cost only what the partition arrays grow by:
// nothing proportional to the edges (the doubled whale adds 180k of
// them, 1.4 MB of packed entries).
func TestApplyBytesProportionalToBatch(t *testing.T) {
	const whale = 16384
	base := applyBytes(t, New(servingShapedGraph(256, whale), Options{Workers: 1}))
	if base > 400<<10 {
		t.Fatalf("one 8-edge Apply allocates %d bytes, want <= %d", base, 400<<10)
	}
	doubled := applyBytes(t, New(servingShapedGraph(256, 2*whale), Options{Workers: 1}))
	// compID + member list (4 + 4 bytes a node) and a page header per 256
	// nodes; 10 bytes a node leaves room for size-class rounding.
	if grow := int64(doubled) - int64(base); grow > 10*whale {
		t.Fatalf("doubling the whale raised one Apply from %d to %d bytes (+%d), want at most +%d: something edge-sized is copied again",
			base, doubled, grow, 10*whale)
	}
	t.Logf("bytes per Apply: %d at 32768 nodes, %d with the whale doubled", base, doubled)
}

// TestReadersOnOldSnapshotsWhileApplyChains: queries drain on the
// snapshot they admitted against while the writer publishes successors
// that share almost all of its pages. Four readers keep building subs,
// probing edges and flooding the partition on whatever snapshot they
// loaded — and hold its state image to what it was when they loaded it —
// while Apply chains. Meaningful under -race: no page reachable from a
// published snapshot may be written.
func TestReadersOnOldSnapshotsWhileApplyChains(t *testing.T) {
	e := New(servingShapedGraph(40, 1500), Options{Workers: 1})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := e.Snapshot()
				c := s.CSR()
				image := graph.AppendCSR(nil, c)
				id := int32(rng.Intn(s.NumComponents()))
				members := s.ComponentMembers(id)
				sub := graph.NewSubCSR(c, members)
				entries := 0
				for _, u := range members {
					for _, v := range c.Neighbors(u) {
						if !c.HasEdge(v, u) {
							t.Errorf("epoch %d: edge (%d,%d) has no reverse", s.Epoch(), u, v)
							return
						}
						entries++
					}
				}
				if _, comps := c.Components(); len(comps) != s.NumComponents() || sub.NumEdges()*2 != entries {
					t.Errorf("epoch %d: %d components flooded, snapshot says %d; sub has %d entries, rows have %d",
						s.Epoch(), len(comps), s.NumComponents(), sub.NumEdges()*2, entries)
					return
				}
				if _, err := e.Search(context.Background(), Query{Nodes: members[:1]}); err != nil {
					t.Errorf("search during churn: %v", err)
					return
				}
				if !bytes.Equal(graph.AppendCSR(nil, c), image) {
					t.Errorf("epoch %d: the snapshot changed while a reader held it", s.Epoch())
					return
				}
			}
		}(int64(r))
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 300; i++ {
		var b Batch
		island := graph.Node(rng.Intn(40) * 64)
		for k := 0; k < 4; k++ {
			u := island + graph.Node(rng.Intn(57))
			if rng.Intn(2) == 0 {
				b.RemoveEdge(u, u+7)
			} else {
				b.AddEdge(u, u+7)
			}
		}
		if i%50 == 49 {
			b.AddEdge(island, graph.Node(40*64+rng.Intn(1500))) // merge an island into the whale
		}
		if _, err := e.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}
