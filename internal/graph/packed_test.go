package graph

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
)

// refPack is the pack loop NewCSR ran while Graph was still map-backed,
// kept as the reference Builder.Build is held to: it packs a model —
// node count, final edge set, final weights — that shares nothing with
// the Builder, accumulating wdeg and w_G in the canonical order. weights
// holds the edges whose last record carried an explicit weight; in a
// weighted graph every other edge weighs 1.
func refPack(n int, edges map[[2]Node]bool, weights map[[2]Node]float64, weighted bool) *CSR {
	adj := make([][]Node, n)
	for e := range edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	c := flatCSR{offsets: make([]int32, n+1), targets: []Node{}, wdeg: make([]float64, n)}
	if weighted {
		c.weights = []float64{}
	}
	for u := 0; u < n; u++ {
		slices.Sort(adj[u])
		c.offsets[u] = int32(len(c.targets))
		c.targets = append(c.targets, adj[u]...)
		if !weighted {
			c.wdeg[u] = float64(len(adj[u]))
			continue
		}
		for _, w := range adj[u] {
			ew, ok := weights[[2]Node{min(Node(u), w), max(Node(u), w)}]
			if !ok {
				ew = 1
			}
			c.weights = append(c.weights, ew)
			c.wdeg[u] += ew
			if Node(u) < w {
				c.totalW += ew
			}
		}
	}
	c.offsets[n] = int32(len(c.targets))
	if !weighted {
		c.totalW = float64(len(edges))
	}
	return newContiguousCSR(c)
}

// refPack packs the delta tests' reference model with the reference loop
// instead of the Builder.
func (r *refModel) refPack(weighted bool) *CSR {
	edges := make(map[[2]Node]bool, len(r.edges))
	for e := range r.edges {
		edges[e] = true
	}
	return refPack(r.n, edges, r.edges, weighted)
}

// packModel mirrors a Builder call sequence: the node count, the edge
// set, and the weights that survive last-wins.
type packModel struct {
	n       int
	edges   map[[2]Node]bool
	weights map[[2]Node]float64
}

func newPackModel(n int) *packModel {
	return &packModel{n: n, edges: map[[2]Node]bool{}, weights: map[[2]Node]float64{}}
}

func (m *packModel) add(u, v Node) {
	if u == v || u < 0 || v < 0 {
		return
	}
	key := [2]Node{min(u, v), max(u, v)}
	m.n = max(m.n, int(key[1])+1)
	m.edges[key] = true
	delete(m.weights, key)
}

// setWeight records the weight even when add drops the edge, as the
// Builder does: a weighted self-loop line leaves no edge behind but still
// makes the graph weighted.
func (m *packModel) setWeight(u, v Node, w float64) {
	m.add(u, v)
	m.weights[[2]Node{min(u, v), max(u, v)}] = w
}

// checkPacked holds g to the model: arrays bit-equal to the reference
// pack, one shared snapshot, and every Graph accessor agreeing with it.
func checkPacked(t *testing.T, g *Graph, m *packModel, weighted bool) {
	t.Helper()
	want := refPack(m.n, m.edges, m.weights, weighted)
	c := NewCSR(g)
	csrBitsEqual(t, c, want)
	if c != NewCSR(g) {
		t.Fatal("NewCSR returned two different snapshots of one Graph")
	}
	if g.NumNodes() != m.n || g.NumEdges() != len(m.edges) || g.Weighted() != weighted {
		t.Fatalf("n=%d m=%d weighted=%v, want %d %d %v", g.NumNodes(), g.NumEdges(), g.Weighted(), m.n, len(m.edges), weighted)
	}
	if math.Float64bits(g.TotalWeight()) != math.Float64bits(want.TotalWeight()) {
		t.Fatalf("TotalWeight = %v, want %v", g.TotalWeight(), want.TotalWeight())
	}
	for u := Node(0); int(u) < m.n; u++ {
		if math.Float64bits(g.WeightedDegree(u)) != math.Float64bits(want.WeightedDegree(u)) {
			t.Fatalf("WeightedDegree(%d) = %v, want %v", u, g.WeightedDegree(u), want.WeightedDegree(u))
		}
		row := g.Neighbors(u)
		if g.Degree(u) != len(row) || !slices.Equal(row, want.Neighbors(u)) {
			t.Fatalf("Neighbors(%d) = %v (degree %d), want %v", u, row, g.Degree(u), want.Neighbors(u))
		}
		if int(u)+1 < m.n && g.Degree(u+1) > 0 {
			next := g.Neighbors(u + 1)[0]
			_ = append(row, -7)
			if g.Neighbors(u + 1)[0] != next {
				t.Fatalf("append to Neighbors(%d) wrote into row %d", u, u+1)
			}
		}
		for v := Node(0); int(v) < m.n; v++ {
			key := [2]Node{min(u, v), max(u, v)}
			if g.HasEdge(u, v) != m.edges[key] {
				t.Fatalf("HasEdge(%d,%d) = %v", u, v, g.HasEdge(u, v))
			}
			wantW := 1.0
			if w, ok := m.weights[key]; ok && m.edges[key] {
				wantW = w
			}
			if got := g.EdgeWeight(u, v); math.Float64bits(got) != math.Float64bits(wantW) {
				t.Fatalf("EdgeWeight(%d,%d) = %v, want %v", u, v, got, wantW)
			}
		}
	}
	if g.HasEdge(-1, 0) || g.HasEdge(0, Node(m.n)) || g.EdgeWeight(0, Node(m.n)) != 1 {
		t.Fatal("out-of-range endpoints must read as an absent edge of weight 1")
	}
}

// TestGraphBornPacked holds every construction path to the reference
// pack: the arrays Build writes are the arrays the old NewCSR loop
// produced from the same edges, bit for bit.
func TestGraphBornPacked(t *testing.T) {
	t.Run("table", func(t *testing.T) {
		b, m := NewBuilder(3), newPackModel(3)
		add := func(u, v Node) { b.AddEdge(u, v); m.add(u, v) }
		setw := func(u, v Node, w float64) { b.SetWeight(u, v, w); m.setWeight(u, v, w) }
		add(0, 1)
		add(1, 0) // reversed duplicate
		add(0, 1)
		add(2, 2) // self-loop
		add(-1, 2)
		setw(4, 4, 3) // weighted self-loop: no edge
		setw(1, 2, 2.5)
		setw(2, 1, 0.1)
		setw(0, 2, 0.7)
		add(0, 2) // AddEdge after SetWeight: back to the default
		setw(5, 3, 1e-3)
		labels := []string{"a", "b", "c", "d", "e", "f", "g", "h"} // g, h: trailing isolated nodes
		b.SetLabels(labels)
		m.n = len(labels)
		g := b.Build()
		checkPacked(t, g, m, true)
		if !slices.Equal(g.labels, labels) || g.Label(7) != "h" {
			t.Fatalf("labels = %v", g.labels)
		}

		// Every weight reset by a later AddEdge: the graph is unweighted.
		b, m = NewBuilder(0), newPackModel(0)
		setw(0, 1, 5)
		setw(1, 2, 6)
		add(1, 0)
		add(2, 1)
		checkPacked(t, b.Build(), m, false)
		if got := b.Build().Label(2); got != "2" {
			t.Fatalf("unlabeled Label(2) = %q", got)
		}

		checkPacked(t, NewBuilder(0).Build(), newPackModel(0), false)
		checkPacked(t, NewBuilder(4).Build(), newPackModel(4), false)
		checkPacked(t, &Graph{}, newPackModel(0), false)
	})

	t.Run("parse", func(t *testing.T) {
		// The mixed file: bare lines before and after the first weighted one.
		g, err := ParseEdgeList(strings.NewReader("a b\nb c 2.5\nc d\nd e 0.5\ne e 9\n"))
		if err != nil {
			t.Fatal(err)
		}
		m := newPackModel(5)
		m.setWeight(0, 1, 1)
		m.setWeight(1, 2, 2.5)
		m.setWeight(2, 3, 1)
		m.setWeight(3, 4, 0.5)
		checkPacked(t, g, m, true)

		// Weighted lines all overridden by bare ones: still a weighted file.
		g, err = ParseEdgeList(strings.NewReader("a b 2.5\nb a\n"))
		if err != nil {
			t.Fatal(err)
		}
		m = newPackModel(2)
		m.add(0, 1)
		checkPacked(t, g, m, true)
	})

	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(20))
		for trial := 0; trial < 300; trial++ {
			n := rng.Intn(12)
			b, m := NewBuilder(n), newPackModel(n)
			for k := rng.Intn(40); k > 0; k-- {
				u, v := Node(rng.Intn(14)-1), Node(rng.Intn(14)-1)
				if trial%3 != 0 && rng.Intn(3) > 0 {
					w := 3 * rng.Float64()
					b.SetWeight(u, v, w)
					m.setWeight(u, v, w)
				} else {
					b.AddEdge(u, v)
					m.add(u, v)
				}
			}
			g := b.Build()
			weighted := len(m.weights) > 0
			checkPacked(t, g, m, weighted)

			// InducedSubgraph re-packs a relabelled subset through the Builder.
			var keep []Node
			for u := 0; u < m.n; u++ {
				if rng.Intn(2) == 0 {
					keep = append(keep, Node(u))
				}
			}
			sub, back := g.InducedSubgraph(keep)
			sm := newPackModel(len(keep))
			for i, u := range back {
				for j, v := range back[:i] {
					if key := [2]Node{v, u}; m.edges[key] {
						if weighted {
							sm.setWeight(Node(j), Node(i), g.EdgeWeight(u, v))
						} else {
							sm.add(Node(j), Node(i))
						}
					}
				}
			}
			checkPacked(t, sub, sm, weighted && len(sm.edges) > 0)
		}
	})
}

// TestComponentsCanonicalForm checks the one flood routine against a
// union-find over the edge list: same partition, ids in first-seen
// ascending-node order, sorted member lists that cannot grow into each
// other — and that a Graph computes it once, however many goroutines ask
// first.
func TestComponentsCanonicalForm(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		g := randomGraph(30+int(seed), 0.03, seed)
		parent := make([]int32, g.NumNodes())
		for i := range parent {
			parent[i] = int32(i)
		}
		g.Edges(func(u, v Node) bool {
			parent[findRoot(parent, u)] = findRoot(parent, v)
			return true
		})

		var wg sync.WaitGroup
		got := make([][]int32, 8)
		for i := range got {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got[i], _ = g.Components()
			}(i)
		}
		wg.Wait()
		compID, comps := g.Components()
		for i := range got {
			if len(compID) > 0 && &got[i][0] != &compID[0] {
				t.Fatal("concurrent first callers saw different partitions")
			}
		}
		if id2, n := ConnectedComponents(g); n != len(comps) || (n > 0 && &id2[0] != &compID[0]) {
			t.Fatal("ConnectedComponents does not return the memoised partition")
		}

		next := int32(0)
		for u, id := range compID {
			if id > next {
				t.Fatalf("seed %d: node %d opens component %d before %d", seed, u, id, next)
			}
			if id == next {
				next++
			}
			for v := range compID {
				if (id == compID[v]) != (findRoot(parent, int32(u)) == findRoot(parent, int32(v))) {
					t.Fatalf("seed %d: nodes %d,%d partitioned differently from union-find", seed, u, v)
				}
			}
		}
		total := 0
		for id, members := range comps {
			total += len(members)
			if !slices.IsSorted(members) || cap(members) != len(members) {
				t.Fatalf("seed %d: component %d = %v (cap %d)", seed, id, members, cap(members))
			}
			for _, u := range members {
				if compID[u] != int32(id) {
					t.Fatalf("seed %d: node %d listed under component %d, labelled %d", seed, u, id, compID[u])
				}
			}
		}
		if total != g.NumNodes() || int(next) != len(comps) {
			t.Fatalf("seed %d: %d members in %d lists, want %d in %d", seed, total, len(comps), g.NumNodes(), next)
		}
		if whole := g.WholeSub(); (whole != nil) != (len(comps) == 1) {
			t.Fatalf("seed %d: WholeSub = %v on %d components", seed, whole, len(comps))
		}
	}
}

// TestParseEdgeListRejectsHostileWeights: a weight must be a finite,
// non-negative number, and the error names the line.
func TestParseEdgeListRejectsHostileWeights(t *testing.T) {
	for _, tc := range []struct {
		in, want string
	}{
		{"a b NaN\n", "line 1"},
		{"a b 1\nb c -Inf\n", "line 2"},
		{"# c\n\na b +Inf\n", "line 3"},
		{"a b inf\n", "line 1"},
		{"a b -0.5\n", "line 1"},
		{"a b 1e999\n", "line 1"}, // out of range: strconv's own error
		{"a b nope\n", "line 1"},
	} {
		if _, err := ParseEdgeList(strings.NewReader(tc.in)); err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "bad weight") {
			t.Errorf("ParseEdgeList(%q) error = %v, want a bad-weight error naming %s", tc.in, err, tc.want)
		}
	}
	for _, in := range []string{"a b 0\n", "a b -0\n", "a b 1e308\n", "a b 0x1p-2\n"} {
		if _, err := ParseEdgeList(strings.NewReader(in)); err != nil {
			t.Errorf("ParseEdgeList(%q) = %v, want accepted", in, err)
		}
	}
}
