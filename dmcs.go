// Package dmcs is the public API of the DMCS library — a Go implementation
// of "DMCS: Density Modularity based Community Search" (SIGMOD 2022).
//
// Community search finds a connected subgraph containing given query nodes.
// DMCS scores candidate communities with *density modularity*, a
// parameter-free objective that combines classic graph modularity (relative
// cohesiveness: dense inside, sparse outside) with graph density (absolute
// cohesiveness), provably alleviating the free-rider and resolution-limit
// problems of classic modularity.
//
// Quick start:
//
//	b := dmcs.NewBuilder(0)
//	b.AddEdge(0, 1) // ... add edges
//	g := b.Build()
//	res, err := dmcs.FPA(g, []dmcs.Node{0}, dmcs.Options{})
//	// res.Community is a connected community containing node 0.
//
// Two algorithms are provided. FPA (Fast Peeling Algorithm) runs in
// log-linear time and is the recommended default; NCA (Non-articulation
// Cancellation Algorithm) is the more exhaustive O(|V|(|V|+|E|)) variant.
// The NCADR/FPADMG cross-overs, the layer-pruning strategy and alternative
// objectives from the paper's ablations are exposed through Options and
// Search.
//
// # Serving many queries
//
// The one-shot entry points above run one query at a time and keep
// nothing between calls but the graph's own packed arrays and component
// partition. When many queries hit the same graph concurrently, repeat,
// or the graph changes under them — the usual server workload — build an
// Engine instead:
//
//	eng := dmcs.NewEngine(g, dmcs.EngineOptions{Workers: 8})
//	res, err := eng.Search(ctx, dmcs.EngineQuery{Nodes: []dmcs.Node{0}})
//	batch := eng.SearchBatch(ctx, queries) // one snapshot, duplicates share a peel, input order
//
// NewEngine starts from the graph's immutable, read-optimized snapshot
// (CSR adjacency plus the cached degree/volume aggregates the modularity
// formulas need, plus the connected-component partition; shared with the
// Graph, not copied) and serves queries concurrently through a bounded
// worker pool. Each query carries a context.Context for cancellation and
// deadlines; a result cache keyed by the normalized query-node set and
// options answers repeats instantly;
// Engine.Stats reports queries served, cache hits, collapsed and computed
// searches, and p50/p95 latency. EngineOptions tunes the pool size
// (default GOMAXPROCS), the cache capacity (default 1024 entries;
// negative disables), and a default per-query timeout. A caller that
// puts answers on a wire can use Engine.SearchEncoded, which memoises the
// caller's encoding of a result on its cache entry from the entry's
// first hit on: such an entry holds its Result plus about one response
// body, under the same capacity and eviction as the result itself.
//
// The serving path is built to scale across cores — no query-rate-
// proportional work takes a globally contended lock. The result cache is
// hash-sharded with a per-shard array-backed LRU, the stats counters are
// striped cache-line-padded atomics (totals stay exact, not sampled),
// per-query scratch comes from a per-P pool, and identical concurrent
// misses collapse onto one in-flight computation (singleflight): a
// thundering herd of N identical cold queries costs one peel, with the
// other N-1 reported as Stats().Collapsed. A joiner's context cancels
// only its own wait; the shared computation is aborted only when its
// last waiter leaves, and timed-out or abandoned partial results are
// never cached. A warm cache hit performs zero heap allocations and no
// channel operations; the Workers bound throttles computed searches
// only.
//
// Results are deterministic: the engine treats query nodes as a set
// (sorting and deduplicating them first) and then returns exactly what
// FPA/NCA/Search return for that normalized node slice, regardless of
// worker count, shard count, cache state, or which caller's computation
// a collapsed query joined. Callers that pass already sorted,
// duplicate-free queries get byte-identical answers to the serial entry
// points.
//
// # Fused batches
//
// Engine.SearchBatch fuses a batch instead of fanning it out: a batch
// is admitted against one snapshot, identical queries are deduplicated
// into one peel, and the remainder is grouped by connected component so
// the worker gang drains each component's queries back-to-back against
// its shared sub-CSR. Skewed batches — most queries landing in one hot
// component — stop paying per-query admission and setup costs B times.
//
// # Dynamic graphs
//
// The engine's graph is not frozen: Engine.Apply takes an EngineBatch of
// staged mutations — AddEdge, SetWeight, RemoveEdge, AddNode — and
// applies them atomically:
//
//	var b dmcs.EngineBatch
//	b.AddEdge(7, 42)
//	b.SetWeight(3, 9, 2.5)
//	b.RemoveEdge(1, 2)
//	stats, err := eng.Apply(b) // stats.Epoch, stats.RefloodedNodes, ...; without a
//	                           // write-ahead log err is nil unless a staged weight
//	                           // is NaN, infinite or negative (nothing is applied)
//
// Apply merges the batch into the current snapshot by copy-on-write over
// its row pages (256 node ids to a page): only the pages holding a touched
// row or a new node are rebuilt, every other page is shared with the
// previous version, and nothing round-trips through a Builder — the merge
// costs memory proportional to the batch, not to the graph. What is still
// O(n) per batch is the partition (component labels and member lists)
// and, on a weighted graph, the re-summation of w_G. It maintains the connected-component
// partition incrementally — insertions union
// components in near-constant time, and only components that actually
// lost an edge are re-flooded — and publishes the result as the next
// graph version with an atomic pointer swap. Within a batch the last
// op on an edge wins; removing an absent edge is a no-op; endpoints past
// the node count (and AddNode) grow the graph; setting a non-unit weight
// on an unweighted graph upgrades it to weighted.
//
// The guarantees that make this safe under full query traffic:
//
//   - Drain: Apply never blocks queries and never mutates a published
//     snapshot. Queries in flight when Apply lands complete on the version
//     they admitted against; queries admitted afterwards see the new one.
//     A query racing an Apply therefore returns a result bit-identical to
//     running against either the pre- or the post-batch graph — never a
//     hybrid.
//   - Component-scoped invalidation: every snapshot carries a
//     per-component version vector — each component has a stable key
//     (never reused) and a version, the epoch (0 initially, +1 per
//     Apply) that last touched it. The result LRU keys every entry by
//     (component key, version), so after an Apply no query can observe
//     a pre-update cached community for a component the batch touched —
//     not even one inserted by a slow pre-update query finishing after
//     the swap. Components the batch did not touch keep their versions:
//     their cached results, sub-CSRs, and in-flight computations stay
//     valid across the swap, so a localized update does not cool the
//     cache for the rest of the graph. A component's version also pins
//     the total graph weight its answers were normalized with, so an
//     untouched component's scores do not drift as unrelated parts of
//     the graph change; the next Apply touching it picks up the current
//     total. EngineApplyStats.Invalidated/Retained report the split.
//   - Writers serialize: concurrent Apply calls are applied one at a
//     time, each producing its own version.
//
// # Architecture: the flat CSR core, scoped per query
//
// Every algorithm in the library runs on one canonical substrate: a CSR
// snapshot of the graph — adjacency packed into a single contiguous
// slice, a parallel edge-weight slice, and cached per-node weighted
// degrees and total edge weight. Peeling mutations (the node removals of
// the search algorithms) are layered on top as an alive-set view that
// maintains the modularity sufficient statistics incrementally over the
// packed arrays. No hashed edge-weight-map lookup happens on any query
// path.
//
// Individual queries are additionally scoped to their connected
// component: the search relabels the component into a compact sub-CSR
// and peels entirely in that dense local space, so per-query time and
// memory are proportional to the component — typically a tiny fraction
// of the graph — rather than to the whole snapshot. All per-query
// scratch (the compact sub-CSR, alive-set arrays, BFS queues, heaps,
// epoch-tagged visited tables) comes from reusable arenas: the one-shot
// entry points draw them from an internal pool, and the Engine owns one
// per worker plus a per-component sub-CSR cache on its snapshot. The
// zero-alloc contract that falls out: steady-state engine serving —
// a warm result cache answering repeated queries — performs zero heap
// allocations per query, and even a computed query allocates only its
// escaping Result. CI gates the cache-hit benchmark at 0 allocs/op.
//
// A Graph is born packed: Builder.Build and ParseEdgeList write the CSR
// arrays directly, and the Graph is a labelled view over that one
// immutable snapshot, which also memoises its connected-component
// partition on first use. Build or parse one, then either call the
// one-shot entry points (FPA, NCA, Search — each looks the query's
// component up and peels; no per-call pack, no per-call flood), or take
// the same snapshot with NewCSR for SearchCSR, or — for concurrent
// serving — hand the graph to NewEngine, which shares the arrays and the
// partition as its first version. All three routes return identical
// results; the compact relabelling is monotonic and the substrate
// preserves the exact float accumulation order of the historical
// implementation, so even scores are bit-identical.
package dmcs

import (
	"io"

	"dmcs/internal/dmcs"
	"dmcs/internal/engine"
	"dmcs/internal/graph"
	"dmcs/internal/modularity"
)

// Node is a dense node identifier in [0, NumNodes).
type Node = graph.Node

// Graph is an immutable simple undirected graph: a labelled view over
// one packed CSR snapshot, with a memoised component partition. Do not
// copy a Graph by value.
type Graph = graph.Graph

// Builder accumulates edges and produces an immutable Graph.
type Builder = graph.Builder

// CSR is the packed, read-optimized graph snapshot every search runs on
// (see the package comment's architecture section). Every Graph owns one;
// NewCSR returns it.
type CSR = graph.CSR

// Options tunes a search; the zero value is the paper's default setup.
type Options = dmcs.Options

// Result is the outcome of a community search.
type Result = dmcs.Result

// Variant names one of the paper's four algorithm instantiations.
type Variant = dmcs.Variant

// Objective selects the best-subgraph goodness function (Figure 12).
type Objective = dmcs.Objective

// Algorithm variants (Section 5 and Section 6.2.5).
const (
	VariantFPA    = dmcs.VariantFPA
	VariantNCA    = dmcs.VariantNCA
	VariantNCADR  = dmcs.VariantNCADR
	VariantFPADMG = dmcs.VariantFPADMG
)

// Selection objectives (Figure 12 ablation).
const (
	DensityModularity            = dmcs.DensityModularity
	ClassicModularity            = dmcs.ClassicModularity
	GeneralizedModularityDensity = dmcs.GeneralizedModularityDensity
)

// Engine serves many queries concurrently against one immutable graph
// snapshot (see the package comment's "Serving many queries" section).
type Engine = engine.Engine

// EngineOptions configures an Engine; the zero value is a sensible
// server setup.
type EngineOptions = engine.Options

// EngineQuery is one community-search request submitted to an Engine.
type EngineQuery = engine.Query

// EngineStats is a point-in-time snapshot of an Engine's counters.
type EngineStats = engine.Stats

// EngineBatch stages graph mutations for Engine.Apply (see the package
// comment's "Dynamic graphs" section).
type EngineBatch = engine.Batch

// EngineApplyStats reports what one Engine.Apply did: the new epoch, the
// batch's net effect, how many nodes the incremental component
// maintenance re-flooded, and the invalidation split — components
// superseded (restamped to the new epoch) vs retained (carried with
// their cached state intact).
type EngineApplyStats = engine.ApplyStats

// BatchResult pairs one query of Engine.SearchBatch with its outcome.
type BatchResult = engine.BatchResult

// Errors returned by the search entry points.
var (
	ErrEmptyQuery   = dmcs.ErrEmptyQuery
	ErrDisconnected = dmcs.ErrDisconnected
	// ErrNodeOutOfRange is returned by the Engine for query nodes outside
	// the graph.
	ErrNodeOutOfRange = engine.ErrNodeOutOfRange
	// ErrQueueTimeout is returned by the Engine when a query's timeout
	// budget expired while it was still queued for a worker slot: the
	// search never started, so there is no partial result and nothing is
	// cached — distinct from a peel-timeout, which returns a best-so-far
	// community with Result.TimedOut set.
	ErrQueueTimeout = engine.ErrQueueTimeout
)

// EnginePanicError is returned by the Engine for a query whose search
// panicked: the panic is recovered at the engine boundary (per-query
// isolation) so a poisoned query costs one failed response, never the
// process.
type EnginePanicError = engine.PanicError

// NewBuilder creates a Builder for a graph with n nodes (AddEdge may grow
// the node count implicitly).
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// FromEdges builds a graph from an explicit edge list.
func FromEdges(n int, edges [][2]Node) *Graph { return graph.FromEdges(n, edges) }

// ParseEdgeList reads a whitespace-separated edge list with arbitrary
// string node labels (see dmcs/internal/graph for the format).
func ParseEdgeList(r io.Reader) (*Graph, error) { return graph.ParseEdgeList(r) }

// FPA runs the Fast Peeling Algorithm (Section 5.5) — the recommended,
// log-linear-time algorithm.
func FPA(g *Graph, q []Node, opts Options) (*Result, error) { return dmcs.FPA(g, q, opts) }

// NCA runs the Non-articulation Cancellation Algorithm (Section 5.4).
func NCA(g *Graph, q []Node, opts Options) (*Result, error) { return dmcs.NCA(g, q, opts) }

// Search runs any of the four algorithm variants.
func Search(g *Graph, q []Node, v Variant, opts Options) (*Result, error) {
	return dmcs.Search(g, q, v, opts)
}

// NewCSR returns g's packed snapshot — the arrays g itself reads, in
// O(1); every call returns the same immutable value.
func NewCSR(g *Graph) *CSR { return graph.NewCSR(g) }

// SearchCSR runs any of the four algorithm variants against a snapshot.
// It floods and sorts the query's component per call; Search on the
// Graph looks it up in the memoised partition instead.
func SearchCSR(c *CSR, q []Node, v Variant, opts Options) (*Result, error) {
	return dmcs.SearchCSR(c, q, v, opts)
}

// NewEngine returns an Engine serving concurrent queries against g,
// starting from g's own packed snapshot and partition. The context passed to
// Engine.Search / Engine.SearchBatch cancels individual queries.
func NewEngine(g *Graph, opts EngineOptions) *Engine { return engine.New(g, opts) }

// DensityModularityOf evaluates the paper's density modularity DM(G,C)
// (Definition 2, unweighted form) for an arbitrary node set.
func DensityModularityOf(g *Graph, c []Node) float64 { return modularity.Density(g, c) }

// ClassicModularityOf evaluates the classic modularity CM(G,C)
// (Definition 1) for an arbitrary node set.
func ClassicModularityOf(g *Graph, c []Node) float64 { return modularity.Classic(g, c) }

// WeightedDensityModularityOf evaluates Definition 2 on a weighted graph.
func WeightedDensityModularityOf(g *Graph, c []Node) float64 {
	return modularity.DensityWeighted(g, c)
}
