package modularity

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dmcs/internal/graph"
)

const eps = 1e-6

// figure1Toy builds a graph consistent with the paper's Figure 1 numbers:
// |E| = 26, community A with l=6, d=14, |A|=4 and A∪B with l=14, d=28,
// |A∪B|=8. A and B are K4s joined by two cross edges; the remaining eight
// nodes form two disjoint K4s.
func figure1Toy() (g *graph.Graph, a, ab []graph.Node) {
	b := graph.NewBuilder(16)
	k4 := func(base graph.Node) {
		for i := graph.Node(0); i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				b.AddEdge(base+i, base+j)
			}
		}
	}
	k4(0)  // A = {0,1,2,3}
	k4(4)  // B = {4,5,6,7}
	k4(8)  // filler
	k4(12) // filler
	b.AddEdge(0, 4)
	b.AddEdge(1, 5)
	g = b.Build()
	a = []graph.Node{0, 1, 2, 3}
	ab = []graph.Node{0, 1, 2, 3, 4, 5, 6, 7}
	return g, a, ab
}

func TestFigure1GraphShape(t *testing.T) {
	g, a, ab := figure1Toy()
	if g.NumEdges() != 26 {
		t.Fatalf("|E|=%d want 26", g.NumEdges())
	}
	sa := StatsOf(g, a)
	if sa.L != 6 || sa.D != 14 || sa.Size != 4 {
		t.Fatalf("stats(A)=%+v", sa)
	}
	sab := StatsOf(g, ab)
	if sab.L != 14 || sab.D != 28 || sab.Size != 8 {
		t.Fatalf("stats(A∪B)=%+v", sab)
	}
}

// Example 1 of the paper: classic modularity of A and A∪B.
func TestPaperExample1ClassicModularity(t *testing.T) {
	g, a, ab := figure1Toy()
	if got := Classic(g, a); math.Abs(got-0.158284) > eps {
		t.Fatalf("CM(A)=%v want 0.158284", got)
	}
	if got := Classic(g, ab); math.Abs(got-0.2485207) > eps {
		t.Fatalf("CM(A∪B)=%v want 0.2485207", got)
	}
	// The free-rider effect of classic modularity: CM(A∪B) > CM(A).
	if Classic(g, ab) <= Classic(g, a) {
		t.Fatal("classic modularity should prefer the merged community")
	}
}

// Example 2 of the paper: density modularity of A and A∪B.
func TestPaperExample2DensityModularity(t *testing.T) {
	g, a, ab := figure1Toy()
	if got := Density(g, a); math.Abs(got-1.028846) > eps {
		t.Fatalf("DM(A)=%v want 1.028846", got)
	}
	if got := Density(g, ab); math.Abs(got-0.8076923) > eps {
		t.Fatalf("DM(A∪B)=%v want 0.8076923", got)
	}
	// Density modularity prefers A, avoiding the free rider B.
	if Density(g, a) <= Density(g, ab) {
		t.Fatal("density modularity should prefer community A")
	}
}

// Example 3 of the paper: ring of 30 6-cliques, merged vs split community,
// evaluated from the sufficient statistics given in the text.
func TestPaperExample3RingOfCliques(t *testing.T) {
	const m = 480
	merged := Stats{L: 31, D: 64, Size: 12}
	split := Stats{L: 15, D: 32, Size: 6}
	if got := ClassicParts(merged, m); math.Abs(got-0.06013889) > eps {
		t.Fatalf("CM(merged)=%v want 0.06013889", got)
	}
	if got := ClassicParts(split, m); math.Abs(got-0.03013889) > eps {
		t.Fatalf("CM(split)=%v want 0.03013889", got)
	}
	if got := DensityParts(merged, m); math.Abs(got-2.405556) > eps {
		t.Fatalf("DM(merged)=%v want 2.405556", got)
	}
	if got := DensityParts(split, m); math.Abs(got-2.411111) > eps {
		t.Fatalf("DM(split)=%v want 2.411111", got)
	}
	// Resolution limit: CM prefers merged, DM prefers split.
	if ClassicParts(merged, m) <= ClassicParts(split, m) {
		t.Fatal("classic modularity should prefer merged (resolution limit)")
	}
	if DensityParts(split, m) <= DensityParts(merged, m) {
		t.Fatal("density modularity should prefer the single clique")
	}
}

func TestStatsOfDedupsNodes(t *testing.T) {
	g, a, _ := figure1Toy()
	dup := append(append([]graph.Node{}, a...), a...)
	if s := StatsOf(g, dup); s.Size != 4 || s.L != 6 {
		t.Fatalf("dedup failed: %+v", s)
	}
}

func TestEmptyAndDegenerateInputs(t *testing.T) {
	g := graph.FromEdges(3, [][2]graph.Node{{0, 1}})
	if Classic(g, nil) != 0 {
		t.Fatal("CM(∅) should be 0")
	}
	if Density(g, nil) != 0 {
		t.Fatal("DM(∅) should be 0")
	}
	empty := graph.FromEdges(2, nil)
	if Classic(empty, []graph.Node{0}) != 0 || Density(empty, []graph.Node{0}) != 0 {
		t.Fatal("edgeless graph should score 0")
	}
	if GeneralizedDensity(g, []graph.Node{0}, 1) != 0 {
		t.Fatal("GMD of singleton should be 0")
	}
}

func TestDensityWeightedMatchesUnweighted(t *testing.T) {
	g, a, _ := figure1Toy()
	if got, want := DensityWeighted(g, a), Density(g, a); math.Abs(got-want) > eps {
		t.Fatalf("weighted DM=%v want %v on unweighted graph", got, want)
	}
	if DensityWeighted(g, nil) != 0 {
		t.Fatal("weighted DM of empty set should be 0")
	}
}

func TestDensityWeightedScaling(t *testing.T) {
	// Doubling all edge weights must not change the *sign structure* and
	// scales DM linearly: DM' = (2w_C − (2d_C)²/(4·2w_G))/|C| = 2·DM.
	b := graph.NewBuilder(4)
	b.SetWeight(0, 1, 2)
	b.SetWeight(1, 2, 2)
	b.SetWeight(2, 3, 2)
	b.SetWeight(0, 3, 2)
	g := b.Build()
	c := []graph.Node{0, 1}
	b2 := graph.NewBuilder(4)
	b2.SetWeight(0, 1, 4)
	b2.SetWeight(1, 2, 4)
	b2.SetWeight(2, 3, 4)
	b2.SetWeight(0, 3, 4)
	g2 := b2.Build()
	if got, want := DensityWeighted(g2, c), 2*DensityWeighted(g, c); math.Abs(got-want) > eps {
		t.Fatalf("scaled DM=%v want %v", got, want)
	}
}

func TestGeneralizedDensityChiZeroIsClassic(t *testing.T) {
	g, a, _ := figure1Toy()
	if got, want := GeneralizedDensity(g, a, 0), Classic(g, a); math.Abs(got-want) > eps {
		t.Fatalf("GMD(χ=0)=%v want CM=%v", got, want)
	}
}

func TestGeneralizedDensityCliquePreference(t *testing.T) {
	// For the ring-of-cliques statistics, GMD with χ=1 should (like DM)
	// prefer the split clique: split has internal density 1.
	const m = 480
	merged := GeneralizedDensityParts(Stats{L: 31, D: 64, Size: 12}, m, 1)
	split := GeneralizedDensityParts(Stats{L: 15, D: 32, Size: 6}, m, 1)
	if split <= merged {
		t.Fatalf("GMD split=%v merged=%v; split should win", split, merged)
	}
}

func TestGraphDensity(t *testing.T) {
	if got := GraphDensity(Stats{L: 6, Size: 4}); got != 1.5 {
		t.Fatalf("density=%v want 1.5", got)
	}
	if GraphDensity(Stats{}) != 0 {
		t.Fatal("density of empty stats should be 0")
	}
}

func TestUpdatedDensityMatchesDirectRecomputation(t *testing.T) {
	g, _, ab := figure1Toy()
	m := int64(g.NumEdges())
	s := StatsOf(g, ab)
	// Remove node 7 (in B): recompute directly and via Definition 5.
	var rest []graph.Node
	for _, u := range ab {
		if u != 7 {
			rest = append(rest, u)
		}
	}
	kv := int64(0)
	for _, v := range g.Neighbors(7) {
		for _, u := range ab {
			if u == v {
				kv++
			}
		}
	}
	dv := int64(g.Degree(7))
	got := UpdatedDensity(s, m, kv, dv)
	want := Density(g, rest)
	if math.Abs(got-want) > eps {
		t.Fatalf("UpdatedDensity=%v direct=%v", got, want)
	}
}

// Property: Definition 5 always equals the direct recomputation of DM on
// S \ {v}, for random graphs, random S and random v in S.
func TestUpdatedDensityProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := graph.NewBuilder(20)
		for i := 0; i < 20; i++ {
			for j := i + 1; j < 20; j++ {
				if rng.Float64() < 0.2 {
					b.AddEdge(graph.Node(i), graph.Node(j))
				}
			}
		}
		g := b.Build()
		if g.NumEdges() == 0 {
			return true
		}
		perm := rng.Perm(20)
		size := 2 + rng.Intn(10)
		set := make([]graph.Node, size)
		for i := range set {
			set[i] = graph.Node(perm[i])
		}
		v := set[rng.Intn(size)]
		var rest []graph.Node
		inSet := make(map[graph.Node]bool)
		for _, u := range set {
			inSet[u] = true
			if u != v {
				rest = append(rest, u)
			}
		}
		var kv int64
		for _, w := range g.Neighbors(v) {
			if inSet[w] {
				kv++
			}
		}
		s := StatsOf(g, set)
		got := UpdatedDensity(s, int64(g.NumEdges()), kv, int64(g.Degree(v)))
		want := Density(g, rest)
		return math.Abs(got-want) < 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: ranking candidates by Λ is equivalent to ranking them by the
// updated density modularity (Definition 6 drops only candidate-independent
// terms).
func TestLambdaOrderEquivalentToUpdatedDensity(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := graph.NewBuilder(16)
		for i := 0; i < 16; i++ {
			for j := i + 1; j < 16; j++ {
				if rng.Float64() < 0.3 {
					b.AddEdge(graph.Node(i), graph.Node(j))
				}
			}
		}
		g := b.Build()
		if g.NumEdges() == 0 {
			return true
		}
		set := make([]graph.Node, 0, 10)
		inSet := make(map[graph.Node]bool)
		for _, p := range rng.Perm(16)[:10] {
			set = append(set, graph.Node(p))
			inSet[graph.Node(p)] = true
		}
		s := StatsOf(g, set)
		m := int64(g.NumEdges())
		kOf := func(v graph.Node) int64 {
			var k int64
			for _, w := range g.Neighbors(v) {
				if inSet[w] {
					k++
				}
			}
			return k
		}
		// compare every candidate pair
		for i := 0; i < len(set); i++ {
			for j := i + 1; j < len(set); j++ {
				u, v := set[i], set[j]
				lu := Lambda(m, s.D, kOf(u), int64(g.Degree(u)))
				lv := Lambda(m, s.D, kOf(v), int64(g.Degree(v)))
				du := UpdatedDensity(s, m, kOf(u), int64(g.Degree(u)))
				dv := UpdatedDensity(s, m, kOf(v), int64(g.Degree(v)))
				if (lu > lv && du < dv-1e-9) || (lu < lv && du > dv+1e-9) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestThetaBasics(t *testing.T) {
	if got := Theta(6, 2); got != 3 {
		t.Fatalf("Θ=%v want 3", got)
	}
	if !math.IsInf(Theta(4, 0), 1) {
		t.Fatal("Θ with k=0 should be +Inf")
	}
}

// Lemma 5: Θ is stable — removing a node changes Θ only for its neighbors.
func TestThetaStability(t *testing.T) {
	g, _, ab := figure1Toy()
	v := graph.NewCSRViewOf(graph.NewCSR(g), ab)
	theta := func(u graph.Node) float64 {
		return Theta(int64(g.Degree(u)), int64(v.DegreeIn(u)))
	}
	before := map[graph.Node]float64{}
	for _, u := range ab {
		before[u] = theta(u)
	}
	removed := graph.Node(7)
	nbr := map[graph.Node]bool{}
	for _, w := range g.Neighbors(removed) {
		nbr[w] = true
	}
	v.Remove(removed)
	for _, u := range ab {
		if u == removed {
			continue
		}
		after := theta(u)
		if !nbr[u] && math.Abs(after-before[u]) > eps {
			t.Fatalf("Θ of non-neighbor %d changed: %v -> %v", u, before[u], after)
		}
	}
}

// Lemma 4: Λ is unstable — removing a node changes Λ of non-neighbors too
// (because d_S shrinks).
func TestLambdaInstability(t *testing.T) {
	g, _, ab := figure1Toy()
	v := graph.NewCSRViewOf(graph.NewCSR(g), ab)
	m := int64(g.NumEdges())
	dS := int64(v.NodeWeightSum())
	// Node 3 (in A) is not adjacent to node 7 (in B).
	if g.HasEdge(3, 7) {
		t.Fatal("test setup: 3 and 7 must not be adjacent")
	}
	lBefore := Lambda(m, dS, int64(v.DegreeIn(3)), int64(g.Degree(3)))
	v.Remove(7)
	dS = int64(v.NodeWeightSum())
	lAfter := Lambda(m, dS, int64(v.DegreeIn(3)), int64(g.Degree(3)))
	if lBefore == lAfter {
		t.Fatal("Λ of a non-neighbor should change after removal (instability)")
	}
}

// Lemma 1 (contrapositive): whenever the classic modularity avoids the
// free-rider effect (CM(S) ≥ CM(S∪S*), with CM(S) > 0 and S* ⊄ S), density
// modularity avoids it too.
func TestLemma1FreeRiderProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := graph.NewBuilder(24)
		for i := 0; i < 24; i++ {
			for j := i + 1; j < 24; j++ {
				if rng.Float64() < 0.18 {
					b.AddEdge(graph.Node(i), graph.Node(j))
				}
			}
		}
		g := b.Build()
		if g.NumEdges() == 0 {
			return true
		}
		perm := rng.Perm(24)
		sizeS := 2 + rng.Intn(8)
		sizeStar := 2 + rng.Intn(8)
		s := make([]graph.Node, sizeS)
		for i := range s {
			s[i] = graph.Node(perm[i])
		}
		// S* overlaps S partially, but must contain nodes outside S.
		star := make([]graph.Node, 0, sizeStar)
		overlap := rng.Intn(min(2, sizeS))
		for i := 0; i < overlap; i++ {
			star = append(star, s[i])
		}
		for i := sizeS; i < sizeS+sizeStar-overlap && i < 24; i++ {
			star = append(star, graph.Node(perm[i]))
		}
		if len(star) == overlap { // S* ⊆ S: lemma precondition violated
			return true
		}
		cm := func(c []graph.Node) float64 { return Classic(g, c) }
		dm := func(c []graph.Node) float64 { return Density(g, c) }
		if Classic(g, s) <= 0 {
			return true // lemma assumes positive modularity
		}
		if !SuffersFreeRider(cm, s, star) && SuffersFreeRider(dm, s, star) {
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Lemma 2 (contrapositive), disjoint-community version: with S ∩ S* = ∅,
// whenever CM avoids the resolution-limit merge, DM avoids it as well.
func TestLemma2ResolutionLimitProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := graph.NewBuilder(24)
		for i := 0; i < 24; i++ {
			for j := i + 1; j < 24; j++ {
				if rng.Float64() < 0.18 {
					b.AddEdge(graph.Node(i), graph.Node(j))
				}
			}
		}
		g := b.Build()
		if g.NumEdges() == 0 {
			return true
		}
		perm := rng.Perm(24)
		sizeS := 2 + rng.Intn(8)
		sizeStar := 2 + rng.Intn(8)
		s := make([]graph.Node, sizeS)
		for i := range s {
			s[i] = graph.Node(perm[i])
		}
		star := make([]graph.Node, 0, sizeStar)
		for i := sizeS; i < sizeS+sizeStar && i < 24; i++ {
			star = append(star, graph.Node(perm[i]))
		}
		if len(star) == 0 || Classic(g, s) <= 0 {
			return true
		}
		cm := func(c []graph.Node) float64 { return Classic(g, c) }
		dm := func(c []graph.Node) float64 { return Density(g, c) }
		if !SuffersFreeRider(cm, s, star) && SuffersFreeRider(dm, s, star) {
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
