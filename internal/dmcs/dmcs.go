// Package dmcs implements the paper's contribution: Density Modularity
// based Community Search. Given a graph G and query nodes Q, it finds a
// connected subgraph containing Q with high density modularity using the
// top-down greedy peeling framework of Section 5 (Algorithm 1) in its four
// instantiations:
//
//   - NCA  — non-articulation candidates + density-modularity-gain Λ (§5.4)
//   - FPA  — farthest-distance candidates + density-ratio Θ (§5.5, Alg. 2)
//   - NCADR — non-articulation candidates + density ratio (§6.2.5)
//   - FPADMG — farthest-distance candidates + Λ (§6.2.5)
//
// plus the layer-based pruning strategy of Section 5.7 and the multi-query
// Steiner merge of Section 5.6.
//
// # Architecture: one flat substrate, query-scoped
//
// Every search runs on a graph.CSR snapshot — packed adjacency, a packed
// parallel edge-weight slice, and cached per-node weighted degrees d_v and
// total edge weight w_G — with a graph.CSRView tracking the alive subgraph
// and its sufficient statistics (w_C, d_S) incrementally during peeling.
// A graph.Graph is born packed and memoises its component partition, so
// the *graph.Graph entry points (Search, NCA, FPA, …)
// run on the graph's own snapshot and look the query's component up
// instead of flooding it; SearchCSR serves snapshots that come without a
// partition, and internal/engine, which maintains its partition across
// updates, calls SearchSub.
//
// On top of the snapshot, every query is scoped to its connected
// component: the component is relabelled into a compact graph.SubCSR
// (dense 0..k-1 ids, identity-wrapped when it spans the whole graph) and
// the entire peel — layer grouping, Θ heap, articulation sweeps,
// candidate scans — runs in the local id space, so a 50-node community
// on a 10M-node graph touches 50-node-sized state, not 10M-node-sized
// state. All scratch comes from a reusable Arena (pooled here, owned
// per worker by internal/engine): sub-CSR backing stores, view arrays,
// epoch-tagged visited tables, BFS queues, heap storage, the removal
// trace. The zero-alloc contract: once an arena is warm, a search heap-
// allocates only the Result and its Community slice (plus RemovalOrder
// when requested) — everything else is recycled, which is what lets the
// engine serve steady-state traffic with 0 allocs/op.
//
// NCA additionally re-compacts geometrically: whenever the alive set
// (by nodes or edges) halves, the sub-CSR is rebuilt over the survivors
// so its candidate rescan costs O(alive). Aggregates are carried — never
// re-accumulated — across rebuilds. It also decides almost every removal
// from two persistent certificates (a spanning tree of the alive set and
// alive-witness articulation marks; see nca.go) instead of a Tarjan pass
// per removal, which stays as the referee and as the O(|V|(|V|+|E|))
// worst case.
//
// The whole substrate is float-exact: relabelling is monotonic and
// weight accumulation follows the same sorted-adjacency order the
// historical map-backed implementation used, so communities AND scores
// are bit-identical (see TestDifferentialLegacyVsCSR and
// TestArenaReuseMatchesFresh, which re-proves it on poisoned arenas).
//
// The hot-path and arena contracts in this package are machine-checked:
// the peel kernels carry //dmcs:hotpath annotations and internal/analysis
// (run as cmd/dmcsvet in CI) proves them allocation-free; see
// CONTRIBUTING.md, "Invariants the linter enforces".
package dmcs

import (
	"errors"
	"slices"
	"time"

	"dmcs/internal/graph"
	"dmcs/internal/modularity"
)

// Errors returned by the search entry points.
var (
	// ErrEmptyQuery is returned when no query nodes are given.
	ErrEmptyQuery = errors.New("dmcs: empty query")
	// ErrDisconnected is returned when the query nodes are not in one
	// connected component, so no community can contain them all.
	ErrDisconnected = errors.New("dmcs: query nodes are not in one connected component")

	errOutOfRange = errors.New("dmcs: query node out of range")
)

// Objective selects the goodness function used to pick the best
// intermediate subgraph (the paper's Figure 12 ablation). The node-removal
// criterion (Λ or Θ) is unchanged; only the selection objective varies.
type Objective int

const (
	// DensityModularity is the paper's DM (Definition 2), the default.
	DensityModularity Objective = iota
	// ClassicModularity is Newman's CM (Definition 1).
	ClassicModularity
	// GeneralizedModularityDensity is the Guo et al. 2020 comparator.
	GeneralizedModularityDensity
)

// Variant names one of the four algorithm instantiations.
type Variant int

const (
	// VariantFPA is farthest-distance candidates + density ratio.
	VariantFPA Variant = iota
	// VariantNCA is non-articulation candidates + Λ gain.
	VariantNCA
	// VariantNCADR is non-articulation candidates + density ratio.
	VariantNCADR
	// VariantFPADMG is farthest-distance candidates + Λ gain.
	VariantFPADMG
)

// String returns the paper's name for the variant.
func (v Variant) String() string {
	switch v {
	case VariantFPA:
		return "FPA"
	case VariantNCA:
		return "NCA"
	case VariantNCADR:
		return "NCA-DR"
	case VariantFPADMG:
		return "FPA-DMG"
	}
	return "unknown"
}

// Options tunes a search. The zero value is the paper's default
// configuration: density-modularity objective, no layer pruning, no
// timeout.
type Options struct {
	// Objective picks the best-subgraph selection function (Figure 12).
	Objective Objective
	// Chi is the exponent of the generalized modularity density (χ);
	// 0 means the comparator's default of 1.
	Chi float64
	// LayerPruning enables the Section 5.7 layer-based pruning strategy
	// (FPA variants only).
	LayerPruning bool
	// Timeout bounds the wall-clock time; on expiry the best community
	// found so far is returned with TimedOut set. Zero means no bound.
	Timeout time.Duration
	// TrackOrder records the node-removal order in the result (used by
	// the Figure 5 experiment).
	TrackOrder bool
	// Cancel, when non-nil, is polled between node removals; once it is
	// closed the search stops and returns the best community found so far
	// with TimedOut set, exactly like a Timeout expiry. The engine wires a
	// context.Context's Done channel here.
	Cancel <-chan struct{}
	// Parallelism is kept so that callers which set it still compile.
	//
	// Deprecated: ignored, every search is serial.
	Parallelism int
}

// Result is the outcome of a community search.
type Result struct {
	// Community is the identified community (sorted node ids). It always
	// contains the query nodes and induces a connected subgraph.
	Community []graph.Node
	// Score is the objective value of Community.
	Score float64
	// Iterations is the number of node removals performed.
	Iterations int
	// RemovalOrder lists removed nodes in order (only when TrackOrder).
	RemovalOrder []graph.Node
	// TimedOut reports whether the search stopped on Options.Timeout.
	TimedOut bool
}

// Search runs the selected variant on a Graph. The graph is already
// packed and its component partition is memoised, so a call validates the
// query against the partition in O(|Q|) and goes straight to the peel:
// no per-call pack, no per-call component flood and sort.
func Search(g *graph.Graph, q []graph.Node, variant Variant, opts Options) (*Result, error) {
	comp, err := queryComponent(g, q)
	if err != nil {
		return nil, err
	}
	a := arenaPool.Get().(*Arena)
	defer arenaPool.Put(a)
	if sub := g.WholeSub(); sub != nil {
		return SearchSub(a, sub, q, comp, variant, opts)
	}
	return searchExtract(a, graph.NewCSR(g), q, comp, variant, opts)
}

// queryComponent validates the query against g's memoised partition and
// returns the sorted connected component containing it (shared memory,
// only read by the search).
func queryComponent(g *graph.Graph, q []graph.Node) ([]graph.Node, error) {
	if len(q) == 0 {
		return nil, ErrEmptyQuery
	}
	compID, comps := g.Components()
	for _, u := range q {
		if u < 0 || int(u) >= len(compID) {
			return nil, errOutOfRange
		}
	}
	id := compID[q[0]]
	for _, u := range q[1:] {
		if compID[u] != id {
			return nil, ErrDisconnected
		}
	}
	return comps[id], nil
}

// SearchCSR runs the selected variant against a snapshot that comes
// without a partition (a MergeCSR product, a decoded checkpoint): it
// validates the query, enumerates the sorted connected component
// containing it, and peels. The component flood uses the arena's
// epoch-tagged visited table (no whole-graph distance array to clear),
// so the entire call — admission, extraction, peel — costs
// O(|component|), not O(|G|).
func SearchCSR(c *graph.CSR, q []graph.Node, variant Variant, opts Options) (*Result, error) {
	if len(q) == 0 {
		return nil, ErrEmptyQuery
	}
	a := arenaPool.Get().(*Arena)
	defer arenaPool.Put(a)
	comp, err := queryComponentArena(a, c, q)
	if err != nil {
		return nil, err
	}
	return searchExtract(a, c, q, comp, variant, opts)
}

// searchExtract compacts comp into the arena's sub-CSR slot (or wraps the
// snapshot when the component spans it and its arrays are contiguous, as
// a Builder's are) and dispatches.
func searchExtract(a *Arena, c *graph.CSR, q, comp []graph.Node, variant Variant, opts Options) (*Result, error) {
	var sub *graph.SubCSR
	if len(comp) == c.NumNodes() && c.Contiguous() {
		sub = a.g.WrapFull(0, c)
	} else {
		sub = a.g.ExtractSub(0, c, comp)
	}
	return SearchSub(a, sub, q, comp, variant, opts)
}

// SearchSub runs the selected variant against a prebuilt sub-CSR using
// caller-owned scratch: sub must be the compact snapshot of comp (the
// sorted connected component containing every query node, in source ids:
// a member list of CSR.Components or UpdateComponents), either extracted
// with graph.NewSubCSR or wrapped with graph.WrapCSR. Every peel structure
// is sized to the component, so the per-query cost is O(|component|), not
// O(|G|). The engine calls it with its per-worker arena and its
// per-component sub-CSR cache, so steady-state serving touches only
// component-sized memory and allocates nothing but the Result. sub and
// comp are only read (one slice may serve concurrent searches); the arena
// is exclusively owned for the duration of the call. It translates the
// query into local ids and dispatches.
func SearchSub(a *Arena, sub *graph.SubCSR, q, comp []graph.Node, variant Variant, opts Options) (*Result, error) {
	if len(q) == 0 {
		return nil, ErrEmptyQuery
	}
	a.layerGen = 0 // new query: peelLayerTheta re-seeds its tags
	lq := a.localQ[:0]
	for _, u := range q {
		l, ok := sub.LocalOf(u)
		if !ok {
			return nil, errOutOfRange
		}
		lq = append(lq, l)
	}
	a.localQ = lq
	switch variant {
	case VariantNCA:
		return runNCA(a, sub, lq, comp, opts, false)
	case VariantNCADR:
		return runNCA(a, sub, lq, comp, opts, true)
	case VariantFPA:
		return runFPA(a, sub, lq, comp, opts, true)
	case VariantFPADMG:
		return runFPA(a, sub, lq, comp, opts, false)
	}
	return nil, errors.New("dmcs: unknown variant")
}

// NCA runs the Non-articulation Cancellation Algorithm (Section 5.4).
func NCA(g *graph.Graph, q []graph.Node, opts Options) (*Result, error) {
	return Search(g, q, VariantNCA, opts)
}

// NCADR runs NCA with the density-ratio pick (Section 6.2.5).
func NCADR(g *graph.Graph, q []graph.Node, opts Options) (*Result, error) {
	return Search(g, q, VariantNCADR, opts)
}

// FPA runs the Fast Peeling Algorithm (Section 5.5, Algorithm 2).
func FPA(g *graph.Graph, q []graph.Node, opts Options) (*Result, error) {
	return Search(g, q, VariantFPA, opts)
}

// FPADMG runs FPA with the density-modularity-gain pick (Section 6.2.5).
func FPADMG(g *graph.Graph, q []graph.Node, opts Options) (*Result, error) {
	return Search(g, q, VariantFPADMG, opts)
}

// deadlinePoller amortizes wall-clock checks during peeling: the
// cancellation channel is polled on every call (cheap, non-blocking), but
// time.Now() is consulted only every 64 calls — a syscall per removal
// dominated small-community peels before. The first call always checks,
// so an already-expired deadline stops the search before any removal.
type deadlinePoller struct {
	deadline time.Time
	cancel   <-chan struct{}
	calls    uint32
	expired  bool
}

// deadlinePollStride is the number of check calls between time.Now()
// polls; a power of two so the modulus is a mask.
const deadlinePollStride = 64

func (p *deadlinePoller) check() bool {
	if p.expired {
		return true
	}
	if p.cancel != nil {
		select {
		case <-p.cancel:
			p.expired = true
			return true
		default:
		}
	}
	if p.deadline.IsZero() {
		return false
	}
	p.calls++
	if p.calls&(deadlinePollStride-1) != 1 {
		return false
	}
	if time.Now().After(p.deadline) {
		p.expired = true
	}
	return p.expired
}

// peelState drives one peel over a compact sub-CSR: a CSRView maintains
// the alive subgraph and its sufficient statistics (w_C, d_S)
// incrementally over the packed local arrays; peelState adds the removal
// trace (recorded in source ids, so it survives re-compaction), the best
// intermediate subgraph seen so far, and deadline/cancellation polling.
// Statistics are floats so the same code path serves unweighted graphs
// (where they are exact integers) and the weighted Definition 2. All
// mutable storage is arena-backed.
type peelState struct {
	a    *Arena
	sub  *graph.SubCSR  // current compact snapshot (swapped by re-compaction)
	v    *graph.CSRView // alive overlay of sub
	wG   float64        // total edge weight of G (|E| when unweighted)
	wdeg []float64      // node weights d_v of sub's members, by local id
	opts Options
	// origGlobals[i] is the source id of the i-th node of the search
	// universe at construction (the component — stable caller memory);
	// universe restricts it to a subset of construction-time local ids
	// (nil = the whole sub). Together they let result() reconstruct the
	// community after the sub has been re-compacted away.
	origGlobals []graph.Node
	universe    []graph.Node
	trace       []graph.Node // removal order, source ids
	// best intermediate subgraph = universe minus trace[:bestIdx]
	bestIdx   int
	bestScore float64
	poll      deadlinePoller
}

// newPeelState resets the arena's embedded peel state around an
// already-built view of sub. universe is nil for a full-sub peel, or the
// sorted construction-time local ids the view was restricted to.
func newPeelState(a *Arena, sub *graph.SubCSR, v *graph.CSRView, origGlobals, universe []graph.Node, opts Options) *peelState {
	s := &a.ps
	*s = peelState{
		a:           a,
		sub:         sub,
		v:           v,
		wG:          sub.TotalWeight(),
		wdeg:        sub.WeightedDegrees(),
		opts:        opts,
		origGlobals: origGlobals,
		universe:    universe,
		trace:       a.trace[:0],
	}
	s.bestScore = s.score()
	if opts.Timeout > 0 {
		s.poll.deadline = time.Now().Add(opts.Timeout)
	}
	s.poll.cancel = opts.Cancel
	return s
}

// kOf returns the (weighted) degree of u into the alive subgraph — the
// k_{v,S} of Definitions 5–7. O(1) unweighted, O(deg) weighted, straight
// from the packed weights.
func (s *peelState) kOf(u graph.Node) float64 { return s.v.WeightedDegreeIn(u) }

// dOf returns u's node weight (its weighted degree in G).
func (s *peelState) dOf(u graph.Node) float64 { return s.wdeg[u] }

// score evaluates the selection objective on the current alive subgraph.
func (s *peelState) score() float64 {
	v := s.v
	return scoreStats(prefixStats{wC: v.InternalWeight(), dS: v.NodeWeightSum(), size: v.NumAlive()}, s.wG, s.opts)
}

// scoreStats evaluates the selection objective from a subgraph's
// sufficient statistics. It is the single scoring site shared by the peel
// loop (statistics a view maintains) and fpaWithPruning's phase-1 prefix
// sweep, so every code path scores with the same formula.
func scoreStats(st prefixStats, wG float64, opts Options) float64 {
	switch opts.Objective {
	case ClassicModularity:
		return modularity.ClassicPartsF(st.wC, st.dS, wG)
	case GeneralizedModularityDensity:
		chi := opts.Chi
		if chi == 0 {
			chi = 1
		}
		return modularity.GeneralizedDensityPartsF(st.wC, st.dS, wG, st.size, chi)
	default:
		return modularity.DensityPartsF(st.wC, st.dS, wG, st.size)
	}
}

// remove deletes local node u (the view updates w_C and d_S), records its
// source id in the trace, and records the new subgraph as best when it
// scores at least as well (Algorithm 2 line 13 uses ≥, which prefers the
// smaller of equally good communities).
func (s *peelState) remove(u graph.Node) {
	s.v.Remove(u)
	s.trace = append(s.trace, s.sub.GlobalOf(u))
	if sc := s.score(); sc >= s.bestScore {
		s.bestScore = sc
		s.bestIdx = len(s.trace)
	}
}

// expired polls the cancellation channel on every call and the deadline
// every deadlinePollStride calls.
func (s *peelState) expired() bool { return s.poll.check() }

// result reconstructs the best intermediate subgraph: the construction
// universe minus the first bestIdx removals, both in ascending source-id
// order, filtered by a sorted merge (the historical implementation
// built a map of the dead prefix per query). The Community slice is the
// one allocation a warm arena's search performs — it escapes to the
// caller.
func (s *peelState) result() *Result {
	dead := append(s.a.dead[:0], s.trace[:s.bestIdx]...)
	slices.Sort(dead)
	s.a.dead = dead

	size := len(s.universe)
	if s.universe == nil {
		size = len(s.origGlobals)
	}
	community := make([]graph.Node, 0, size-s.bestIdx)
	j := 0
	if s.universe == nil {
		for _, g := range s.origGlobals {
			if j < len(dead) && dead[j] == g {
				j++
				continue
			}
			community = append(community, g)
		}
	} else {
		for _, u := range s.universe {
			g := s.origGlobals[u]
			if j < len(dead) && dead[j] == g {
				j++
				continue
			}
			community = append(community, g)
		}
	}
	r := &Result{
		Community:  community,
		Score:      s.bestScore,
		Iterations: len(s.trace),
		TimedOut:   s.poll.expired,
	}
	if s.opts.TrackOrder {
		r.RemovalOrder = append([]graph.Node(nil), s.trace...)
	}
	s.a.trace = s.trace[:0] // hand the grown trace back to the arena
	return r
}

// queryComponentArena validates the query and returns the connected
// component containing it, sorted ascending, in arena memory valid for
// the current query. One flood from the first query node both checks
// connectivity of Q and enumerates the component; visited bookkeeping is
// the arena's epoch-tagged mark table, so nothing whole-graph-sized is
// written — the flood touches O(|component|) memory.
func queryComponentArena(a *Arena, c *graph.CSR, q []graph.Node) ([]graph.Node, error) {
	if len(q) == 0 {
		return nil, ErrEmptyQuery
	}
	for _, u := range q {
		if u < 0 || int(u) >= c.NumNodes() {
			return nil, errOutOfRange
		}
	}
	a.g.BeginEpoch(c.NumNodes())
	comp := append(a.compBuf[:0], q[0]) // BFS queue doubles as the member list
	a.g.Mark(q[0], 0)
	for head := 0; head < len(comp); head++ {
		for _, w := range c.Neighbors(comp[head]) {
			if _, seen := a.g.Marked(w); !seen {
				a.g.Mark(w, 0)
				comp = append(comp, w)
			}
		}
	}
	a.compBuf = comp
	for _, u := range q[1:] {
		if _, seen := a.g.Marked(u); !seen {
			return nil, ErrDisconnected
		}
	}
	if len(comp) == c.NumNodes() {
		// The flood reached every node: sorted, the list is 0..n-1.
		for i := range comp {
			comp[i] = graph.Node(i)
		}
	} else {
		slices.Sort(comp)
	}
	return comp, nil
}
