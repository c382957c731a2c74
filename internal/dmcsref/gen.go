package dmcsref

import "math/rand"

// StepKind is the kind of one generated step.
type StepKind uint8

const (
	StepApply      StepKind = iota // apply Ops
	StepQuery                      // search Queries[0]
	StepBatch                      // search Queries as one batch
	StepStale                      // stale-capable lookup of Queries[0]
	StepCheckpoint                 // write a checkpoint
	StepCrash                      // crash, perhaps while appending Ops
	StepRecover                    // recover from what the crash left
)

// Step is one generated step.
type Step struct {
	Kind    StepKind
	Ops     []Op
	Queries []Query
}

// Query is one generated query: its nodes, the peel it asks for, and
// whether it carries a deadline so short that any peel it starts times
// out.
type Query struct {
	Nodes    []int
	Peel     Peel
	Deadline bool
}

var variants = [...]string{"FPA", "FPA-DMG", "NCA", "NCA-DR"}

// Gen draws seeded step sequences over a graph of islands: each island
// a ring of size nodes with chords to the node three on. A batch works
// on one island, so most components outlive most batches. It toggles
// chords, reweights ring edges, cuts a node out of its island (a split)
// or stitches it back, bridges two islands (a merge) or drops a bridge
// (a split), and grows the graph by a node, up to a quarter more nodes
// than it started with. A Gen is not safe for concurrent use.
type Gen struct {
	rng           *rand.Rand
	islands, size int
	n             int // nodes, counting the ones batches added
	bridges       [][2]int
	recent        []Query // the last queries drawn, for repeats
	queued        []Step  // steps Next returns before drawing again
}

// NewGen returns a generator over islands islands of size nodes each;
// size must be at least 8.
func NewGen(seed int64, islands, size int) *Gen {
	return &Gen{rng: rand.New(rand.NewSource(seed)), islands: islands, size: size, n: islands * size}
}

// Graph returns the starting graph, unweighted. Its ring edges come first
// and introduce the nodes in ascending order, so an edge list written in
// this order keeps node labels equal to node ids.
func (g *Gen) Graph() (n int, edges []Edge) {
	for _, step := range []int{1, 3} {
		for u := 0; u < g.islands*g.size; u++ {
			edges = append(edges, Edge{u, g.next(u, step), 1})
		}
	}
	return g.islands * g.size, edges
}

// next returns the node step places on from u around u's island ring.
func (g *Gen) next(u, step int) int {
	base := u - u%g.size
	return base + (u-base+step+g.size)%g.size
}

// Next returns the next step. A StepCrash is always followed by
// StepRecover. A StepStale ends a revisit: its query is answered, its
// island churned, the query answered again and the island churned once
// more, so the lookup finds two superseded versions of the answer to
// choose from.
func (g *Gen) Next() Step {
	if len(g.queued) > 0 {
		st := g.queued[0]
		g.queued = g.queued[1:]
		return st
	}
	switch r := g.rng.Intn(100); {
	case r < 30:
		return Step{Kind: StepApply, Ops: g.Ops()}
	case r < 65:
		return Step{Kind: StepQuery, Queries: []Query{g.Query()}}
	case r < 77:
		return Step{Kind: StepBatch, Queries: g.Batch()}
	case r < 89:
		// A revisit. Its query carries no deadline, so every answer it
		// gets is cached.
		q := g.Query()
		q.Deadline = false
		qs, base := []Query{q}, q.Nodes[0]-q.Nodes[0]%g.size
		g.queued = []Step{
			{Kind: StepApply, Ops: g.opsOn(base)},
			{Kind: StepQuery, Queries: qs},
			{Kind: StepApply, Ops: g.opsOn(base)},
			{Kind: StepStale, Queries: qs},
		}
		return Step{Kind: StepQuery, Queries: qs}
	case r < 97:
		return Step{Kind: StepCheckpoint}
	default:
		g.queued = []Step{{Kind: StepRecover}}
		return Step{Kind: StepCrash, Ops: g.Ops()}
	}
}

// Ops returns one batch of one to three edits on one island.
func (g *Gen) Ops() []Op { return g.opsOn(g.rng.Intn(g.islands) * g.size) }

// opsOn returns one batch of one to three edits on the island whose
// first node is base.
func (g *Gen) opsOn(base int) []Op {
	var ops []Op
	for k := 1 + g.rng.Intn(3); k > 0; k-- {
		u := base + g.rng.Intn(g.size)
		switch g.rng.Intn(8) {
		case 0, 1: // toggle a chord
			kind := AddEdge
			if g.rng.Intn(2) == 0 {
				kind = RemoveEdge
			}
			ops = append(ops, Op{Kind: kind, U: u, V: g.next(u, 5)})
		case 2: // reweight a ring edge
			ops = append(ops, Op{Kind: SetWeight, U: u, V: g.next(u, 1), W: []float64{0.5, 1, 1.5, 2.25, 3}[g.rng.Intn(5)]})
		case 3: // cut u out of its island
			for _, step := range []int{1, 3, 5} {
				ops = append(ops, Op{Kind: RemoveEdge, U: u, V: g.next(u, step)}, Op{Kind: RemoveEdge, U: u, V: g.next(u, -step)})
			}
		case 4: // stitch u back
			for _, step := range []int{1, 3} {
				ops = append(ops, Op{Kind: AddEdge, U: u, V: g.next(u, step)}, Op{Kind: AddEdge, U: u, V: g.next(u, -step)})
			}
		case 5: // bridge to another island
			v := (u + g.size*(1+g.rng.Intn(g.islands-1))) % (g.islands * g.size)
			g.bridges = append(g.bridges, [2]int{u, v})
			ops = append(ops, Op{Kind: AddEdge, U: u, V: v})
		case 6: // drop a bridge
			if len(g.bridges) > 0 {
				i := g.rng.Intn(len(g.bridges))
				b := g.bridges[i]
				g.bridges = append(g.bridges[:i], g.bridges[i+1:]...)
				ops = append(ops, Op{Kind: RemoveEdge, U: b[0], V: b[1]})
			}
		case 7: // grow by a node, attached or not, up to a quarter more nodes
			if g.n >= g.islands*g.size*5/4 {
				break
			}
			if g.rng.Intn(2) == 0 {
				ops = append(ops, Op{Kind: AddEdge, U: u, V: g.n})
			} else {
				ops = append(ops, Op{Kind: AddNode, U: g.n})
			}
			g.n++
		}
	}
	return ops
}

// Query returns one query: half the time one of the last eight again,
// else one to three nodes of one island, sometimes with a node of
// another island (disconnected unless bridged) or past the last node (out
// of range), under a random variant and objective.
func (g *Gen) Query() Query {
	if len(g.recent) > 0 && g.rng.Intn(2) == 0 {
		return g.recent[g.rng.Intn(len(g.recent))]
	}
	q := g.draw()
	if g.recent = append(g.recent, q); len(g.recent) > 8 {
		g.recent = g.recent[1:]
	}
	return q
}

func (g *Gen) draw() Query {
	base := g.rng.Intn(g.islands) * g.size
	q := Query{Nodes: []int{base + g.rng.Intn(g.size)}}
	for g.rng.Intn(3) == 0 && len(q.Nodes) < 3 {
		q.Nodes = append(q.Nodes, base+g.rng.Intn(g.size))
	}
	switch g.rng.Intn(24) {
	case 0:
		q.Nodes = append(q.Nodes, g.rng.Intn(g.islands*g.size))
	case 1:
		q.Nodes = append(q.Nodes, g.n+g.rng.Intn(4)-1)
	}
	q.Peel.Variant = variants[g.rng.Intn(len(variants))]
	q.Peel.Pruning = q.Peel.Variant[0] == 'F' && g.rng.Intn(2) == 0
	switch g.rng.Intn(6) {
	case 0:
		q.Peel.Objective = 1
	case 1:
		q.Peel.Objective, q.Peel.Chi = 2, []float64{0, 1.5}[g.rng.Intn(2)]
	}
	q.Deadline = g.rng.Intn(8) == 0
	return q
}

// Batch returns two to six queries; half the time one of them comes
// twice more, first with a deadline and then without.
func (g *Gen) Batch() []Query {
	qs := make([]Query, 2+g.rng.Intn(5))
	for i := range qs {
		qs[i] = g.Query()
	}
	if g.rng.Intn(2) == 0 {
		q := qs[g.rng.Intn(len(qs))]
		q.Deadline = true
		qs = append(qs, q)
		q.Deadline = false
		qs = append(qs, q)
	}
	return qs
}
