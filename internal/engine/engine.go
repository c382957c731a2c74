// Package engine serves many DMCS community-search queries concurrently
// against one shared graph. It is the many-queries-one-graph layer of the
// repository: construction builds a single immutable Snapshot (CSR
// adjacency, cached modularity aggregates, connected-component partition)
// and every query afterwards is a pure read — a bounded worker pool fans
// searches out across cores, a per-query context carries cancellation and
// deadlines, a result cache answers repeated queries without
// recomputation, and a stats collector tracks throughput and latency
// percentiles.
//
// The serving path is built to scale across cores: no query-rate-
// proportional work takes a globally contended lock. The result cache is
// hash-sharded (per-shard mutex, array-backed intrusive LRU), the stats
// counters are striped cache-line-padded atomics, per-query scratch comes
// from a per-P sync.Pool, and identical concurrent misses collapse onto
// one in-flight computation (singleflight) instead of peeling the same
// community once per caller. A warm cache hit touches one shard mutex,
// two atomic adds, and nothing else — no channels, no global locks, no
// allocation. The Workers bound applies to computed searches (the
// CPU-heavy part); cache hits are not throttled by it.
//
// The graph is shared but not frozen: Engine.Apply takes a Batch of edge
// and node mutations, merges it into the current snapshot's packed CSR
// (internal/graph.MergeCSR — no round-trip through a Builder),
// maintains the component partition incrementally (unions on insert,
// re-flooding only components that lost an edge), and publishes the
// result as the next version with an atomic pointer swap. In-flight
// queries drain on the version they admitted against.
//
// # Component-scoped epochs
//
// Invalidation is per component, not per graph. Every component of a
// snapshot points at one immutable version record: a stable identity,
// a version (the epoch at which the component last changed), the
// normalization weight w_G it was stamped with, its stale-read ancestry,
// and its lazily built sub-CSR. Every cache key, singleflight key, and
// fused-batch admission key is prefixed with the record's (identity,
// version) pair instead of the global epoch. An Apply stamps a fresh
// record — a new identity at the new epoch — only for the components its
// batch touched (an edge inserted, removed, or re-weighted inside it, or
// a merge/split involving it); every untouched component's record is
// carried to the successor by pointer, so its results, its sub-CSR, and
// its in-flight computations remain valid, warm, and joinable across the
// swap. Under churn concentrated away from the hot query set, the hit
// ratio therefore stays high instead of collapsing to zero on every
// mutation. The global epoch is only the WAL's sequence number and the
// version a fresh stamp takes.
//
// A component's version pins its full scoring context: the member
// adjacency and the w_G the modularity objectives divide by, both frozen
// at the stamping epoch. Served answers bit-match the serial reference
// for the graph as of that component's version — never a hybrid of two
// versions. The deliberate consequence on multi-component graphs: churn
// in one component does not shift the normalization term of answers
// served for other, untouched components; their answers stay bit-stable
// until the component itself changes. "Stale" is a per-component notion
// as well — see LookupStale — and a degraded-mode answer for an
// untouched component is not stale at all.
//
// Queries are deterministic: node sets are normalized (sorted,
// deduplicated) on entry, and for a given normalized set and options the
// engine returns exactly what the serial dmcs entry points return for
// that slice against the same graph version, regardless of worker count,
// shard count, batch composition, cache state, or which caller's
// computation a collapsed query joined.
//
// A miss is admitted once and computed one way. Search, every query of
// a SearchBatch, and LookupStale pass one admission (admit: normalize,
// canonical options, component, key); every peel — a flight's, a
// joiner's own-clock fallback, the cache-disabled path, a fused batch
// leader's — runs through one compute, which alone owns the worker
// slot, the scratch bundle, panic isolation, the search stats, and the
// abandoned-versus-deadline classification. The routes differ only in
// whose cancel channel they pass and how they publish: see flight.go
// for singleflight, batch.go for SearchBatch, which admits a whole batch
// against a single snapshot, collapses identical queries before any
// work starts, and drains the misses grouped by connected component
// (Stats.Fused counts them).
package engine

import (
	"context"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dmcs/internal/dmcs"
	"dmcs/internal/faultinject"
	"dmcs/internal/graph"
	"dmcs/internal/wal"
)

// defaultCacheSize is the LRU capacity when Options.CacheSize is zero.
const defaultCacheSize = 1024

// Options configures an Engine. The zero value is a sensible server
// setup: GOMAXPROCS workers, a 1024-entry result cache, no timeout.
type Options struct {
	// Workers bounds how many searches execute concurrently across Search
	// and SearchBatch calls combined. The bound covers computed searches
	// — actual peels; cache hits and singleflight joins are not throttled
	// by it. 0 means runtime.GOMAXPROCS(0).
	Workers int
	// CacheSize is the result-cache capacity in entries, spread across
	// hash shards. 0 means the default (1024); negative disables caching
	// (and with it singleflight collapsing) entirely. It bounds memory in
	// entries, not bytes: an entry is its Result and, once it has been hit
	// through SearchEncoded, the caller's encoding of it as well (about
	// one response body).
	CacheSize int
	// DefaultTimeout is applied to queries whose own Options.Timeout is
	// zero. 0 leaves such queries unbounded.
	DefaultTimeout time.Duration
	// StaleRetention, when > 0, bounds per-component staleness ancestry:
	// when an Apply supersedes a component, the new component records up
	// to StaleRetention (identity, version) pairs of its ancestors, and
	// LookupStale may probe those entries (still resident in the LRU) for
	// degraded-mode serving. Version-scoped keys keep superseded entries
	// unservable on the normal query path either way — retention changes
	// only the stale-read API, never a fresh query's answer. 0 (the
	// default) records no ancestry, so LookupStale serves only current-
	// version (non-stale) answers. Results for components an Apply did
	// not touch are never stale and are unaffected by this knob.
	StaleRetention int
	// CheckpointEvery, when > 0 on an engine opened through OpenDurable,
	// writes a background checkpoint after every CheckpointEvery
	// effective Applies, bounding how much log a recovery must replay.
	// Ignored without a WAL; 0 leaves checkpointing to explicit
	// Checkpoint calls (e.g. the serving tier's drain path).
	CheckpointEvery int
}

// Query is one community-search request.
type Query struct {
	// Nodes is the query-node set. It is normalized (sorted, deduplicated)
	// before searching, so node order never affects the answer or the
	// cache key.
	Nodes []graph.Node
	// Variant selects the algorithm; the zero value is FPA.
	Variant dmcs.Variant
	// Opts tunes the search exactly as in the serial API. Cancel is owned
	// by the engine and overwritten.
	Opts dmcs.Options
}

// BatchResult pairs one query's result with its error; exactly one of the
// two fields is set.
type BatchResult struct {
	Result *dmcs.Result
	Err    error
}

// Engine answers DMCS queries against the current version of one graph,
// mutable through Apply. It is safe for concurrent use and needs no
// shutdown — it owns no long-lived background goroutines, only a
// concurrency bound on computed searches (each miss spawns one short-
// lived goroutine that dies with its computation).
//
// Steady-state serving is allocation-free and contention-free: each
// query checks out a scratch bundle (a search arena plus the
// normalized-node and cache-key buffers) from a per-P pool, and a cache
// hit touches only those reusable buffers, its key's cache shard, and
// one stats stripe. Computed queries allocate only the escaping Result,
// the cache entry that stores it, and their flight bookkeeping.
type Engine struct {
	snap           atomic.Pointer[Snapshot] // current version; swapped by Apply
	applyMu        sync.Mutex               // serializes writers (Apply)
	cache          *resultCache
	stats          *statsCollector
	sem            chan struct{} // worker-pool slots, acquired per computed search
	scratch        sync.Pool     // *workerScratch; per-P, so checkout does no channel ops
	stripeCtr      atomic.Uint32 // round-robins stats stripes across scratch bundles
	invalidated    atomic.Uint64 // components superseded by Apply, cumulative
	retained       atomic.Uint64 // components carried across Apply, cumulative
	workers        int
	defaultTimeout time.Duration
	staleRetention int

	// Durability (nil / zero without OpenDurable): the write-ahead log
	// Apply appends to before publishing, the periodic-checkpoint
	// cadence, and what recovery reconstructed.
	wal             *wal.Log
	checkpointEvery int
	sinceCkpt       atomic.Int64 // effective Applies since the last checkpoint trigger
	ckptBusy        atomic.Bool  // at most one periodic checkpoint in flight
	ckptFails       atomic.Uint64
	recovery        *RecoveryInfo
}

// workerScratch is the reusable per-query state one serving goroutine
// needs: the dmcs search arena, the admission buffers, and the stats
// stripe this bundle reports to. Bundles live in a sync.Pool, so under
// steady load each P keeps reusing its own bundle — and therefore its
// own stats stripe, which is what keeps the striped counters
// contention-free.
type workerScratch struct {
	arena *dmcs.Arena
	nodes []graph.Node // normalized query nodes, written by admit
	//dmcs:keyed
	key    []byte // admit's cache key (+ flight-key suffix on the miss path)
	stripe int    // stats stripe this bundle records on
}

// getScratch checks a worker bundle out of the pool; every path must
// hand it back via putScratch (or transfer it to searchShared).
//
//dmcs:acquire putScratch
func (e *Engine) getScratch() *workerScratch {
	return e.scratch.Get().(*workerScratch)
}

func (e *Engine) putScratch(ws *workerScratch) {
	e.scratch.Put(ws)
}

// New returns an Engine serving g. Its first snapshot shares g's packed
// arrays and memoised component partition (see NewSnapshot); nothing is
// copied. For an engine whose state survives restarts, use OpenDurable
// instead.
func New(g *graph.Graph, opts Options) *Engine {
	e := newEngine(opts)
	e.snap.Store(NewSnapshot(g))
	return e
}

// newEngine builds everything but the initial snapshot — shared by New
// (snapshot from a graph) and OpenDurable (snapshot from recovery).
func newEngine(opts Options) *Engine {
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	cs := opts.CacheSize
	if cs == 0 {
		cs = defaultCacheSize
	}
	// Shards and stripes scale with the hotter of the worker bound and
	// the machine's parallelism: cache hits bypass the worker bound, so
	// GOMAXPROCS goroutines can be on the hit path at once even when
	// Workers is small.
	par := max(w, runtime.GOMAXPROCS(0))
	e := &Engine{
		cache:          newResultCache(cs, par), // nil (disabled) when cs < 0
		stats:          newStatsCollector(par),
		sem:            make(chan struct{}, w),
		workers:        w,
		defaultTimeout: opts.DefaultTimeout,
		staleRetention: opts.StaleRetention,
	}
	e.scratch.New = func() any {
		return &workerScratch{
			arena: dmcs.NewArena(),
			// Mask in unsigned space: stripe counts are powers of two,
			// and int(uint32) would go negative past 2^31 on 32-bit
			// platforms, where a signed % turns into a panic-inducing
			// negative index.
			stripe: int((e.stripeCtr.Add(1) - 1) & uint32(e.stats.numStripes()-1)),
		}
	}
	return e
}

// Snapshot exposes the engine's current read-optimized graph snapshot.
// Successive calls may return different versions once Apply is in play;
// each returned snapshot is individually immutable.
func (e *Engine) Snapshot() *Snapshot { return e.snap.Load() }

// Epoch returns the current graph version (0 until the first Apply).
func (e *Engine) Epoch() uint64 { return e.snap.Load().epoch }

// Workers returns the concurrency bound the engine runs with.
func (e *Engine) Workers() int { return e.workers }

// Stats returns a point-in-time snapshot of the engine's counters.
func (e *Engine) Stats() Stats {
	st := e.stats.snapshot(e.cache.len())
	st.Invalidated = e.invalidated.Load()
	st.Retained = e.retained.Load()
	if e.wal != nil {
		st.DurableEpoch = e.wal.DurableEpoch()
		st.LastCheckpoint, _ = e.wal.LastCheckpoint()
		st.CheckpointFailures = e.ckptFails.Load()
		st.WALSyncErrors = e.wal.SyncErrors()
	}
	return st
}

// Search answers one query. A cache hit returns immediately; a miss
// either joins the key's in-flight computation or starts one, blocking
// until a worker slot frees up. The context cancels this caller's wait
// and — unless other callers are still waiting on the same computation —
// the search itself; a search cancelled mid-peel returns ctx.Err(),
// never a partial result. Cached results are shared across callers and
// must not be modified.
func (e *Engine) Search(ctx context.Context, q Query) (*dmcs.Result, error) {
	res, _, err := e.SearchEncoded(ctx, q, nil)
	return res, err
}

// SearchEncoded is Search for a caller that puts every answer on a wire:
// beside the result it returns the cached encoding of it, so a repeated
// query costs the caller one copy instead of one encode. enc turns a
// result into its request-independent bytes; the engine never looks
// inside them. A computed (or joined) answer returns nil bytes and calls
// nothing — the caller encodes it itself, straight into its own buffer.
// The first cache hit on an entry calls enc(res), outside any lock, and
// attaches an exact-size copy to the entry (unless the entry has since
// been replaced or evicted); every later hit returns those bytes, which
// are shared and must not be modified. They leave with the entry, so
// CacheSize bounds them too. enc may return nil to say the result has no
// encoding: nothing is attached and nil is returned. All callers of one
// engine must pass the same encoding — an entry keeps the first one it
// was given. A nil enc is plain Search.
func (e *Engine) SearchEncoded(ctx context.Context, q Query, enc func(*dmcs.Result) []byte) (*dmcs.Result, []byte, error) {
	return e.run(ctx, e.snap.Load(), q, enc)
}

// run answers one query against snap: admit, cache lookup, then — on a
// miss — the flight (or, with caching disabled, an unshared peel). The
// whole hit path reuses pooled buffers and performs no channel operation
// and no allocation.
//
// The caller loads the snapshot pointer exactly once, so a query racing
// an Apply runs consistently against one version end to end: its
// component lookup and search read that version's arrays, its cache key
// carries that version's component identity, and a result it inserts
// afterwards is keyed under that identity — visible
// to any query whose component is at the same version, which is exactly
// the set of queries owed a bit-identical answer.
// Scratch discipline: the bundle is returned to the pool as soon as its
// last buffer use is behind us — in particular BEFORE blocking on a
// flight, so the number of live bundles (and their grown arenas) stays
// bounded by the engine's actual parallelism, not by how many callers
// are parked waiting on slow computations.
func (e *Engine) run(ctx context.Context, snap *Snapshot, q Query, enc func(*dmcs.Result) []byte) (*dmcs.Result, []byte, error) {
	// An already-cancelled context must fail deterministically — the
	// cache-hit path never polls the context, and the flight wait selects
	// randomly when both channels are ready. The error is recorded on a
	// rotating stripe (no scratch checkout — this path must not construct
	// an arena — and no single hardcoded counter cache line for a flood
	// of cancelled calls to pile onto).
	if err := ctx.Err(); err != nil {
		e.stats.recordError(int(e.stripeCtr.Add(1) & uint32(e.stats.numStripes()-1)))
		return nil, nil, err
	}
	ws := e.getScratch()
	opts, id, h, err := e.admit(snap, q, ws)
	if err != nil {
		e.stats.recordError(ws.stripe)
		e.putScratch(ws)
		return nil, nil, err
	}
	if e.cache == nil {
		// Cache-disabled path: peel on the caller's goroutine with the
		// caller's context — exactly the serial semantics, bounded by the
		// worker pool.
		res, err := e.peelOwn(ctx, snap, id, ws.nodes, q.Variant, opts, ws.stripe)
		e.putScratch(ws)
		return res, nil, err
	}
	if res, wire, ok := e.cache.probe(h, ws.key); ok {
		if wire == nil && enc != nil {
			// First hit on this entry: encode outside the shard lock (enc is
			// the caller's code and linear in the community), then attach.
			// The bytes are returned whether or not they attached — they
			// are this res's either way.
			if b := enc(res); len(b) > 0 {
				wire = make([]byte, len(b))
				copy(wire, b)
				e.cache.attach(h, ws.key, res, wire)
			}
		}
		e.stats.recordHit(ws.stripe)
		e.putScratch(ws)
		return res, wire, nil
	}
	res, err := e.searchShared(ctx, snap, id, q.Variant, opts, ws, h)
	return res, nil, err
}

// admit is the one admission every query takes — Search, each query of
// a SearchBatch, and LookupStale: normalize the node set into ws.nodes,
// canonicalize the options and apply the default timeout, resolve the
// component on snap, and build the component-scoped cache key into
// ws.key (it cannot be built before the component is known). It returns
// the options the search runs with, the component id and the key's
// hash, and allocates nothing on warm buffers: the hit path stays at 0
// allocs/op.
//
// The faultinject.EngineSearch point sits before everything — ON the
// cache-hit path, deliberately: its disarmed cost (one atomic load, zero
// allocations) is what the registry's zero-cost contract gates, and when
// armed it lets chaos suites fail or stall queries at admission.
func (e *Engine) admit(snap *Snapshot, q Query, ws *workerScratch) (opts dmcs.Options, id int32, h uint64, err error) {
	if err := faultinject.Fire(faultinject.EngineSearch); err != nil {
		return opts, 0, 0, err
	}
	ws.nodes = normalizeNodesInto(ws.nodes[:0], q.Nodes)
	opts = canonicalOptions(q.Opts)
	if opts.Timeout == 0 {
		opts.Timeout = e.defaultTimeout
	}
	if id, err = snap.componentIndex(ws.nodes); err != nil {
		return opts, 0, 0, err
	}
	ws.key = appendCacheKey(ws.key[:0], snap.cv[id].key, ws.nodes, q.Variant, opts)
	return opts, id, hashKey(ws.key), nil
}

// compute runs one peel under the engine's one slot / cancel / panic /
// stats protocol; every computed search — flight, own-clock fallback,
// cache-disabled, fused batch — goes through it, so the routes cannot
// drift apart. cancel aborts the work: the caller's ctx.Done(), or a
// flight's refcounted channel.
//
// The slot wait runs under the query's own deadline budget: a budget
// that expires while QUEUED fails with ErrQueueTimeout — no peel ran, so
// there is no partial and nothing cacheable — and a contended wait that
// succeeds hands the peel only the REMAINING budget, so queue wait plus
// peel never exceed the configured Timeout. The scratch bundle is checked
// out only once the slot is held: a queued computation pins no arena.
//
// A peel that unwound early because cancel fired (a closed Cancel
// surfaces as TimedOut) is abandoned: it counts as a computed search but
// stays out of the latency window — its wall-clock is cancellation
// timing — and its partial, which depends on when the cancel landed, is
// dropped for errSlotCancelled, like a cancel that fired while queued. A
// genuine Options.Timeout expiry keeps its TimedOut partial (the deadline
// contract) and is counted here; a queue-timeout is counted by the caller
// that owns the query.
func (e *Engine) compute(snap *Snapshot, id int32, nodes []graph.Node, v dmcs.Variant, opts dmcs.Options, cancel <-chan struct{}) (*dmcs.Result, error) {
	remaining, err := e.acquireSlot(opts.Timeout, cancel)
	if err != nil {
		return nil, err
	}
	opts.Timeout, opts.Cancel = remaining, cancel
	ws := e.getScratch()
	start := time.Now()
	// The component's compact sub-CSR goes straight into the search:
	// per-query work touches only component-sized packed arrays plus the
	// arena's recycled scratch — never whole-graph-sized state.
	res, err := e.safeSearch(ws, snap.SubCSR(id), nodes, snap.comps[id], v, opts)
	abandoned := err == nil && res.TimedOut && isClosed(cancel)
	e.stats.recordSearch(ws.stripe, time.Since(start), err == nil && !abandoned)
	if err == nil && res.TimedOut && !abandoned {
		e.stats.recordTimedOut(ws.stripe)
	}
	e.putScratch(ws)
	<-e.sem
	if abandoned {
		return nil, errSlotCancelled
	}
	return res, err
}

// peelOwn runs one unshared computation on the caller's context and
// records the caller's outcome on stripe — the cache-disabled path, the
// joiner's own-clock fallback, and the fused batch's leaders.
func (e *Engine) peelOwn(ctx context.Context, snap *Snapshot, id int32, nodes []graph.Node, v dmcs.Variant, opts dmcs.Options, stripe int) (*dmcs.Result, error) {
	res, err := e.compute(snap, id, nodes, v, opts, ctx.Done())
	if err == errSlotCancelled || (err == nil && ctx.Err() != nil) {
		// Cancelled while queued or mid-peel — or done by the time a
		// complete search returned; either way the caller has left.
		err = ctx.Err()
	}
	if err != nil {
		if err == ErrQueueTimeout {
			e.stats.recordTimedOut(stripe)
		}
		e.stats.recordError(stripe)
		return nil, err
	}
	e.stats.recordServed(stripe, false)
	return res, nil
}

// canonicalOptions maps result-equivalent option settings onto one
// representative, so equivalent queries share a cache entry and a
// flight. Chi only participates in scoring under
// GeneralizedModularityDensity, so it is zeroed for the other
// objectives; under GMD, Chi 0 is documented as "the comparator's
// default of 1" and is canonicalized to 1. The canonical options are
// also what the search runs with — by construction they produce
// bit-identical results.
func canonicalOptions(o dmcs.Options) dmcs.Options {
	if o.Objective == dmcs.GeneralizedModularityDensity {
		if o.Chi == 0 {
			o.Chi = 1
		}
	} else {
		o.Chi = 0
	}
	return o
}

// normalizeNodesInto appends a sorted, deduplicated copy of q to dst
// (usually a recycled worker buffer).
func normalizeNodesInto(dst, q []graph.Node) []graph.Node {
	out := append(dst, q...)
	if len(out) < 2 {
		return out
	}
	sortNodes(out)
	dup := 1
	for _, u := range out[1:] {
		if u != out[dup-1] {
			out[dup] = u
			dup++
		}
	}
	return out[:dup]
}

// insertionSortMax is the query-set size up to which sortNodes uses
// insertion sort. The paper's interactive protocol uses 1–16 query
// nodes, where insertion sort on an almost-always-tiny slice beats the
// general sort's overhead; programmatic callers can pass arbitrarily
// large sets, which fall through to slices.Sort instead of degrading
// quadratically.
const insertionSortMax = 24

func sortNodes(a []graph.Node) {
	if len(a) > insertionSortMax {
		slices.Sort(a)
		return
	}
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// appendCacheKey appends the encoding of the query component's identity,
// the normalized node set, and every option that shapes a completed
// result to b (usually a recycled worker buffer, so the hit path builds
// its key without allocating). A component identity is issued once, with
// its version, and never re-stamped (recovery restores the counter that
// issues them), so it names one version of one component: a result
// computed against one version is keyed under that version's identity and
// can never answer a lookup after the component changes — while an Apply
// that leaves the component untouched leaves its identity, and therefore
// every cached entry for it, intact. Timeout is deliberately excluded:
// only results that ran to completion are cached, and those do not
// depend on the deadline. Callers pass canonicalized options (see
// canonicalOptions) so result-equivalent settings collide.
//
//dmcs:keymaker
func appendCacheKey(b []byte, compKey uint64, nodes []graph.Node, v dmcs.Variant, o dmcs.Options) []byte {
	b = strconv.AppendUint(b, compKey, 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(v), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(o.Objective), 10)
	b = append(b, '|')
	b = strconv.AppendFloat(b, o.Chi, 'g', -1, 64)
	b = append(b, '|')
	if o.LayerPruning {
		b = append(b, 'p')
	}
	if o.TrackOrder {
		b = append(b, 't')
	}
	for _, u := range nodes {
		b = append(b, '|')
		b = strconv.AppendInt(b, int64(u), 10)
	}
	return b
}
