package graph

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

func benchRandom(n int, p float64) *Graph {
	rng := rand.New(rand.NewSource(42))
	b := NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(Node(i), Node(rng.Intn(i)))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				b.AddEdge(Node(i), Node(j))
			}
		}
	}
	return b.Build()
}

// BenchmarkBuilderBuild times the pack: Build is where a Graph's CSR
// arrays are written (NewCSR only hands them out), so this is the set-up
// cost a loader pays once per graph.
func BenchmarkBuilderBuild(b *testing.B) {
	g := benchRandom(5000, 0.002)
	bld := NewBuilder(g.NumNodes())
	g.Edges(func(u, v Node) bool {
		bld.AddEdge(u, v)
		return true
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bld.Build()
	}
}

// BenchmarkViewRemove measures the core peeling primitive (and the view's
// construction, which every iteration repeats).
func BenchmarkViewRemove(b *testing.B) {
	g := benchRandom(2000, 0.005)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := allAlive(g)
		for u := 0; u < g.NumNodes(); u++ {
			v.Remove(Node(u))
		}
	}
}

// BenchmarkArticulationPoints measures one articulation sweep on fresh
// scratch (the textbook NCA pays one per removal).
func BenchmarkArticulationPoints(b *testing.B) {
	v := allAlive(benchRandom(2000, 0.005))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.ArticulationPoints()
	}
}

// BenchmarkMultiSourceBFS measures FPA's distance-layer setup through the
// Graph entry point (the packed kernel plus its two allocations).
func BenchmarkMultiSourceBFS(b *testing.B) {
	g := benchRandom(5000, 0.002)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MultiSourceBFS(g, []Node{0, 1, 2})
	}
}

// BenchmarkSortNodesReflect vs BenchmarkSortNodesSlices quantify the
// sortNodes migration from reflection-based sort.Slice to the
// monomorphized slices.Sort on a component-sized id slice — the sort
// every SearchCSR query pays after its component flood.
func sortBenchInput() []Node {
	rng := rand.New(rand.NewSource(9))
	out := make([]Node, 4096)
	for i := range out {
		out[i] = Node(rng.Intn(1 << 20))
	}
	return out
}

func BenchmarkSortNodesReflect(b *testing.B) {
	src := sortBenchInput()
	buf := make([]Node, len(src))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, src)
		sort.Slice(buf, func(x, y int) bool { return buf[x] < buf[y] })
	}
}

func BenchmarkSortNodesSlices(b *testing.B) {
	src := sortBenchInput()
	buf := make([]Node, len(src))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, src)
		slices.Sort(buf)
	}
}

// BenchmarkSubCSRExtract measures component compaction out of the 32k-node
// serving-shaped snapshot: arena is the per-query path (relabel one
// island into a dense sub-CSR, reusing arena storage); island and whale
// are NewSubCSR, the engine's lazy per-component build — what one Apply's
// invalidated island costs its next query, and the 16384-node component
// read through the paged accessors. The island build must allocate
// island-sized memory, not |G|-sized relabelling tables.
func BenchmarkSubCSRExtract(b *testing.B) {
	csr, _ := applyBenchFixture()
	island, _ := csr.Component(100 * 64)
	whale, _ := csr.Component(256 * 64)
	b.Run("arena", func(b *testing.B) {
		a := NewArena()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			a.ExtractSub(i%2, csr, island)
		}
	})
	for _, tc := range []struct {
		name    string
		members []Node
	}{{"island", island}, {"whale", whale}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				NewSubCSR(csr, tc.members)
			}
		})
	}
}

// applyBenchFixture is a snapshot shaped like the serving benchmark's:
// 256 ring+chord islands of 64 nodes and one 16384-node component, 32768
// nodes in 257 components. The returned batches toggle the same 8 chords
// of one island off and on again, so chained merges return to the start.
func applyBenchFixture() (*CSR, [2][]Delta) {
	const islands, size, whale = 256, 64, 16384
	rng := rand.New(rand.NewSource(5))
	b := NewBuilder(islands*size + whale)
	for base := 0; base < islands*size; base += size {
		for i := 0; i < size; i++ {
			b.AddEdge(Node(base+i), Node(base+(i+1)%size))
			b.AddEdge(Node(base+i), Node(base+(i+7)%size))
		}
	}
	for i := 1; i < whale; i++ {
		u := islands*size + i
		b.AddEdge(Node(u), Node(islands*size+rng.Intn(i)))
		for k := 0; k < 10; k++ {
			b.AddEdge(Node(u), Node(islands*size+rng.Intn(whale)))
		}
	}
	var batches [2][]Delta
	for k := 0; k < 8; k++ {
		u := Node(100*size + 5*k)
		batches[0] = append(batches[0], Delta{Op: DeltaRemoveEdge, U: u, V: u + 7})
		batches[1] = append(batches[1], Delta{Op: DeltaAddEdge, U: u, V: u + 7})
	}
	return NewCSR(b.Build()), batches
}

// BenchmarkMergeCSRSparseBatch measures an 8-edge batch merged into a
// 32k-node snapshot: one row page rebuilt, every other page shared.
func BenchmarkMergeCSRSparseBatch(b *testing.B) {
	c, batches := applyBenchFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, _ = MergeCSR(c, batches[i%2])
	}
}

// BenchmarkUpdateComponents measures the partition update after the same
// batches: one island re-flooded on a removal, 256 components carried.
func BenchmarkUpdateComponents(b *testing.B) {
	c, batches := applyBenchFixture()
	// The two batches toggle between two graphs; step[k] is the update that
	// leaves graph k for the other one.
	type step struct {
		next     *CSR
		info     *MergeInfo
		compID   []int32
		numComps int
	}
	var steps [2]step
	for k := range steps {
		compID, comps := c.Components()
		next, info := MergeCSR(c, batches[k])
		steps[k] = step{next, info, compID, len(comps)}
		c = next
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := &steps[i%2]
		UpdateComponents(s.next, s.compID, s.numComps, s.info)
	}
}
