package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"dmcs/internal/graph"
	"dmcs/internal/lfr"
	"dmcs/internal/queries"
)

// scale fixes every dimension of a run that is not the timed phase
// itself. The benchmark always runs benchScale; the smoke test shrinks it
// so the whole suite fits in seconds.
type scale struct {
	islands    int // ring+chord islands in the serving fixture
	islandSize int // nodes per island
	whaleN     int // LFR nodes in the serving fixture's whale
	paperN     int // lfr-paper graph (FPA)
	twinN      int // lfr-paper twin for NCA

	// hotWhaleKeys is how many distinct whale queries the fixture picks;
	// hot-read warms and repeats them all. Each is one group of the floor
	// statistic (see floors.go), and their answers differ in size by a
	// factor of several, so it takes this many for their median to hold
	// still from seed to seed.
	hotWhaleKeys int
	// coldWhaleKeys is how many of them each cold-peel client repeats (the
	// clients take disjoint parts): few enough that a key comes round about
	// a hundred times in a timed phase, and with 19 island misses between
	// two whale queries enough that by then the client has put 20 x
	// coldWhaleKeys other keys through the 1024-entry cache on its own,
	// whatever the other clients do: still a miss.
	coldWhaleKeys int
	// fpaSets and ncaSets are the query sets of paper-lfr's timed loop,
	// each repeated every pass. A pruned FPA query's cost varies by a third
	// from set to set, an NCA query's hardly, and NCA is 30x slower.
	// querySets is the traced pass's, run once, where the F1 figures need
	// more than the paper's 20 to hold still from seed to seed.
	fpaSets, ncaSets, querySets int

	// Fixed request counts of the traced passes, per client: every
	// hot-read request a hit; nine island misses to one whale peel on
	// cold-peel; churn-open open loop at the fixed rates for tracedChurn.
	tracedHot, tracedCold int
	tracedChurn           time.Duration
}

var benchScale = scale{
	islands: 256, islandSize: 64, whaleN: 16384, paperN: 5000, twinN: 1000,
	hotWhaleKeys: 256, coldWhaleKeys: 64, fpaSets: 128, ncaSets: 6, querySets: 40,
	tracedHot: 10000, tracedCold: 1200, tracedChurn: 2 * time.Second,
}

// lfrConfig is lfr.Default() (the paper's Table 2 defaults) at n nodes.
// Below the paper's own n = 5000 the degree and community-size caps come
// down with n (to n/10 each): with the full-size caps an N = 1000 graph
// has three or four giant communities, and every accuracy figure on it is
// decided by which of them the query sets happen to fall in.
func lfrConfig(n int, seed int64) lfr.Config {
	cfg := lfr.Default()
	cfg.N = n
	cfg.Seed = seed
	if n < 5000 {
		cfg.MaxDeg = n / 10
		cfg.MaxComm = max(n/10, 2*cfg.MinComm)
		cfg.AvgDeg = min(cfg.AvgDeg, float64(n)/50)
	}
	return cfg
}

type class uint8

const (
	classIsland class = iota // an island query; every workload's bulk class
	classCold                // churn-open only: an island query off the cold walk, a miss
	classWhale
	classApply
	numClasses
)

func (c class) String() string { return [...]string{"island", "cold-island", "whale", "apply"}[c] }

// reqSpec is one pre-built request: the body bytes handed to the server
// and what the harness needs to check the answer.
type reqSpec struct {
	body  []byte
	nodes []graph.Node // the query set: one node
	class class
}

// request is one entry of a workload's plan: what to send, the class its
// latency is filed under (the spec's own, except on churn-open's cold
// walk), and its group within the class for the floor statistic (0 for an
// island query, the whale key's index for a whale query; see floors.go).
type request struct {
	spec  *reqSpec
	class class
	group int32
}

// servingFixture is `islands+lfr`: a disjoint union of ring+chord islands
// (node ids 0..islands*islandSize-1) and one LFR graph shifted above
// them, whose giant component is the whale. Every island is the same
// vertex-transitive graph, so every island query is the same work; whale
// queries differ, which is why the floor statistic keeps them apart by
// key.
type servingFixture struct {
	sz      scale
	g       *graph.Graph
	csr     *graph.CSR   // reference substrate for the answer checks
	whale   []graph.Node // members of the whale component, ascending
	queries []reqSpec    // indexed by node id: every island node, every whale member
	// hotKeys are the repeated keys, as indexes into queries: 2 seeded
	// nodes per island, then sz.hotWhaleKeys seeded whale members.
	hotKeys []int32
	// whaleToggle is a seeded non-adjacent whale pair the churn writer
	// inserts and removes again.
	whaleToggle [2]graph.Node
}

func (f *servingFixture) islandNodes() int { return f.sz.islands * f.sz.islandSize }

func (f *servingFixture) hotIslands() []int32 { return f.hotKeys[:2*f.sz.islands] }
func (f *servingFixture) hotWhales() []int32  { return f.hotKeys[2*f.sz.islands:] }

// whaleSeed generates the whale's LFR graph, whatever the workload seed,
// which picks the keys, their order and the churn. The sizes an LFR graph
// draws for its communities differ from one generator seed to the next by
// enough to move the median whale answer's size, and with it hot-read's
// costly_p50_ms, by 15 %; lfr-paper's graphs do follow the workload seed.
const whaleSeed = 1

func newServingFixture(sz scale, seed int64) (*servingFixture, error) {
	res, err := lfr.Generate(lfrConfig(sz.whaleN, whaleSeed))
	if err != nil {
		return nil, fmt.Errorf("whale LFR: %w", err)
	}
	base := sz.islands * sz.islandSize
	b := graph.NewBuilder(base + sz.whaleN)
	for c := 0; c < sz.islands; c++ {
		off := c * sz.islandSize
		for i := 0; i < sz.islandSize; i++ {
			u := graph.Node(off + i)
			b.AddEdge(u, graph.Node(off+(i+1)%sz.islandSize))
			b.AddEdge(u, graph.Node(off+(i+7)%sz.islandSize))
		}
	}
	res.G.Edges(func(u, v graph.Node) bool {
		b.AddEdge(graph.Node(base)+u, graph.Node(base)+v)
		return true
	})
	f := &servingFixture{sz: sz, g: b.Build()}
	f.csr = graph.NewCSR(f.g)

	// The whale is the LFR part's largest component (the generator does
	// not promise connectivity; leftovers stay as tiny extra components).
	comp, count := graph.ConnectedComponents(f.g)
	size := make([]int, count)
	for u := base; u < len(comp); u++ {
		size[comp[u]]++
	}
	best := 0
	for c := range size {
		if size[c] > size[best] {
			best = c
		}
	}
	for u := base; u < len(comp); u++ {
		if int(comp[u]) == best {
			f.whale = append(f.whale, graph.Node(u))
		}
	}
	if len(f.whale) < sz.whaleN*9/10 {
		return nil, fmt.Errorf("whale component has %d of %d LFR nodes", len(f.whale), sz.whaleN)
	}

	f.queries = make([]reqSpec, base+sz.whaleN)
	for u := 0; u < base; u++ {
		f.queries[u] = querySpec(graph.Node(u), classIsland)
	}
	for _, u := range f.whale {
		f.queries[u] = querySpec(u, classWhale)
	}

	rng := rand.New(rand.NewSource(seed))
	for c := 0; c < sz.islands; c++ {
		a := rng.Intn(sz.islandSize)
		d := 1 + rng.Intn(sz.islandSize-1)
		f.hotKeys = append(f.hotKeys, int32(c*sz.islandSize+a), int32(c*sz.islandSize+(a+d)%sz.islandSize))
	}
	for _, p := range rng.Perm(len(f.whale))[:sz.hotWhaleKeys] {
		f.hotKeys = append(f.hotKeys, int32(f.whale[p]))
	}
	for {
		u, v := f.whale[rng.Intn(len(f.whale))], f.whale[rng.Intn(len(f.whale))]
		if u != v && !f.g.HasEdge(u, v) {
			f.whaleToggle = [2]graph.Node{u, v}
			break
		}
	}
	return f, nil
}

func querySpec(u graph.Node, c class) reqSpec {
	body := strconv.AppendInt([]byte(`{"nodes":[`), int64(u), 10)
	return reqSpec{body: append(body, "]}"...), nodes: []graph.Node{u}, class: c}
}

// chordOps returns the 8 chord edges the churn writer toggles in island
// k: (j, j+islandSize/2) is never a ring (+1) or skip (+7) edge, so a
// removal cannot disconnect the island.
func (f *servingFixture) chordOps(island int) [][2]graph.Node {
	off := island * f.sz.islandSize
	half := f.sz.islandSize / 2
	ops := make([][2]graph.Node, 0, 8)
	for j := 0; j < 8 && j < half; j++ {
		ops = append(ops, [2]graph.Node{graph.Node(off + j), graph.Node(off + j + half)})
	}
	return ops
}

// applyBatch is one batch of the churn stream: edges inserted or removed
// together.
type applyBatch struct {
	add   bool
	edges [][2]graph.Node
}

// body renders the batch in the /apply update-stream format.
func (b applyBatch) body() []byte {
	op := "del "
	if b.add {
		op = "add "
	}
	var out []byte
	for _, e := range b.edges {
		out = append(out, op...)
		out = strconv.AppendInt(out, int64(e[0]), 10)
		out = append(out, ' ')
		out = strconv.AppendInt(out, int64(e[1]), 10)
		out = append(out, '\n')
	}
	return out
}

// deltas is the same batch as the ops Engine.Apply hands to MergeCSR and
// the WAL.
func (b applyBatch) deltas() []graph.Delta {
	out := make([]graph.Delta, len(b.edges))
	for i, e := range b.edges {
		if b.add {
			out[i] = graph.Delta{Op: graph.DeltaAddEdge, U: e[0], V: e[1], W: 1}
		} else {
			out[i] = graph.Delta{Op: graph.DeltaRemoveEdge, U: e[0], V: e[1]}
		}
	}
	return out
}

// lfrCase is one LFR graph with ground truth and its §6.1 query sets.
type lfrCase struct {
	g          *graph.Graph
	comms      [][]graph.Node
	membership []int32
	queries    [][]graph.Node
}

func newLFRCase(n, sets int, seed int64) (*lfrCase, error) {
	res, err := lfr.Generate(lfrConfig(n, seed))
	if err != nil {
		return nil, fmt.Errorf("lfr n=%d: %w", n, err)
	}
	c := &lfrCase{g: res.G, comms: res.Communities, membership: res.Membership}
	c.queries = queries.Generate(c.g, c.comms, queries.Options{NumSets: sets, Size: 1, TrussK: 4, Seed: seed})
	if len(c.queries) == 0 {
		return nil, fmt.Errorf("lfr n=%d: no query sets", n)
	}
	return c, nil
}

// truthOf is the ground-truth community of a query set's first node.
func (c *lfrCase) truthOf(q []graph.Node) []graph.Node { return c.comms[c.membership[q[0]]] }

// paperFixture is `lfr-paper`: lfr.Default() for FPA and an N=1000 twin
// for NCA, which is two orders slower per query, with their query sets.
type paperFixture struct {
	big, twin *lfrCase
}

func newPaperFixture(sz scale, bigSets, twinSets int, seed int64) (*paperFixture, error) {
	big, err := newLFRCase(sz.paperN, bigSets, seed)
	if err != nil {
		return nil, err
	}
	twin, err := newLFRCase(sz.twinN, twinSets, seed)
	if err != nil {
		return nil, err
	}
	return &paperFixture{big: big, twin: twin}, nil
}
