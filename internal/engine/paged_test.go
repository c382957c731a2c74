package engine

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"dmcs/internal/dmcs"
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

// applyBytes is the heap allocation of one Apply of an 8-edge one-island
// batch: the mean over 50 of them, and the least such mean of three
// windows. A collection that empties a sync.Pool only ever adds a refill
// to a window, so the minimum reads what Apply itself allocates.
func applyBytes(t *testing.T, e *Engine) uint64 {
	t.Helper()
	const rounds, windows = 50, 3
	for r := 0; r < 2; r++ { // first calls may size lazily built state
		if _, err := e.Apply(chordBatch(r)); err != nil {
			t.Fatal(err)
		}
	}
	least := uint64(math.MaxUint64)
	for w := 0; w < windows; w++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for r := 0; r < rounds; r++ {
			if st, err := e.Apply(chordBatch(r)); err != nil || st.Invalidated != 1 {
				t.Fatalf("Apply: %+v, %v", st, err)
			}
		}
		runtime.ReadMemStats(&after)
		least = min(least, (after.TotalAlloc-before.TotalAlloc)/rounds)
	}
	return least
}

// TestApplyBytesProportionalToBatch is the memory bound of the paged
// snapshot as a plain test: on a 32768-node, 257-component graph shaped
// like the serving benchmark's, an 8-edge batch inside one island
// allocates the one row page it touches, the page table (a header per
// 256 nodes), the carried map, a pointer per component to its version
// record and one fresh record. It changes no component's members, so the
// partition is shared with the previous snapshot instead of rebuilt —
// under 40 KB (it measures 26 KB), where seven per-component vectors
// restamped in place of the record pointers took 44 KB, the rebuilt
// partition alone 274 KB and the whole-CSR copy 1.9 MB. Doubling the
// whale may cost only what the page table grows by, at most a byte a
// node: neither a rebuilt partition (8 bytes a node) nor anything
// proportional to the edges (the doubled whale adds 180k of them, 1.4 MB
// of packed entries).
//
// Both bounds assume the re-flood's pooled mark table (8 bytes a node)
// survives at least one window of 50 Applies: each refill adds about
// 5 KB to a window's mean at 32768 nodes and 8 KB with the whale doubled,
// so a failure by a few KB may be sync.Pool having been cleared in every
// window, not Apply allocating more. Under the race detector sync.Pool
// drops a quarter of what is put back, so there the bounds are the
// rebuilt partition's: 400 KB, and 10 bytes a node of growth, which still
// catches anything edge-sized.
func TestApplyBytesProportionalToBatch(t *testing.T) {
	const whale = 16384
	maxBase, perNode := int64(40<<10), int64(1)
	if raceEnabled {
		maxBase, perNode = 400<<10, 10
	}
	base := applyBytes(t, New(servingShapedGraph(256, whale), Options{Workers: 1}))
	if int64(base) > maxBase {
		t.Fatalf("one 8-edge Apply allocates %d bytes, want <= %d", base, maxBase)
	}
	doubled := applyBytes(t, New(servingShapedGraph(256, 2*whale), Options{Workers: 1}))
	if grow := int64(doubled) - int64(base); grow > perNode*whale {
		t.Fatalf("doubling the whale raised one Apply from %d to %d bytes (+%d), want at most +%d: something node- or edge-sized is copied again",
			base, doubled, grow, perNode*whale)
	}
	t.Logf("bytes per Apply: %d at 32768 nodes, %d with the whale doubled", base, doubled)
}

// TestApplyCarriesOneSubBuild: a sub-CSR is built once per component
// version, not once per snapshot. A component carried by an Apply shares
// its version record with the predecessor, so whichever snapshot builds
// the sub first builds it for both — including a successor building it
// for a predecessor that never had. On a connected graph the record is
// shared by a contiguous snapshot (whose whole-graph component wraps the
// main CSR) and a page-table successor (which would extract it), and
// both must answer bit-identically whichever of them built the sub.
func TestApplyCarriesOneSubBuild(t *testing.T) {
	e := New(smallQueryEngineGraph(3, 40), Options{Workers: 1})
	old := e.Snapshot()
	var b Batch
	b.RemoveEdge(0, 1) // touches component 0 only
	if st, err := e.Apply(b); err != nil || st.Retained != 2 {
		t.Fatalf("Apply: %+v, %v", st, err)
	}
	next := e.Snapshot()
	q := []graph.Node{40}
	a, _ := old.ComponentID(q)
	n, _ := next.ComponentID(q)
	if old.ComponentKey(a) != next.ComponentKey(n) || old.ComponentVersion(a) != next.ComponentVersion(n) {
		t.Fatal("untouched component was not carried")
	}
	if built := next.SubCSR(n); old.SubCSR(a) != built {
		t.Fatal("a carried component's sub-CSR was built twice: once per snapshot instead of once per version")
	}

	queries := []Query{
		{Nodes: []graph.Node{0}},
		{Nodes: []graph.Node{3, 90}, Variant: dmcs.VariantNCA},
		{Nodes: []graph.Node{17}, Opts: dmcs.Options{Objective: dmcs.ClassicModularity}},
	}
	for _, oldFirst := range []bool{true, false} {
		e := New(servingShapedGraph(0, 400), Options{Workers: 1})
		old := e.Snapshot()
		var b Batch
		b.AddNode(400)
		if st, err := e.Apply(b); err != nil || st.Retained != 1 {
			t.Fatalf("Apply: %+v, %v", st, err)
		}
		next := e.Snapshot()
		if !old.CSR().Contiguous() || next.CSR().Contiguous() || old.NumComponents() != 1 || next.NumComponents() != 2 {
			t.Fatal("fixture: want a contiguous whole-graph snapshot and a page-table successor carrying its component")
		}
		snaps := []*Snapshot{old, next}
		if !oldFirst {
			snaps[0], snaps[1] = next, old
		}
		arena := dmcs.NewArena()
		var want []*dmcs.Result
		for i, s := range snaps {
			for j, q := range queries {
				id, err := s.ComponentID(q.Nodes)
				if err != nil {
					t.Fatal(err)
				}
				got, err := dmcs.SearchSub(arena, s.SubCSR(id), q.Nodes, s.ComponentMembers(id), q.Variant, canonicalOptions(q.Opts))
				if err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					want = append(want, got)
				} else if math.Float64bits(got.Score) != math.Float64bits(want[j].Score) || !slices.Equal(got.Community, want[j].Community) {
					t.Fatalf("oldFirst=%v query %v: snapshots sharing one version answer %v (score %v) and %v (score %v)",
						oldFirst, q.Nodes, want[j].Community, want[j].Score, got.Community, got.Score)
				}
			}
		}
	}
}
