package engine

import (
	"slices"
	"sync/atomic"
	"time"
)

// latencyWindow is how many recent per-query latencies the percentile
// estimates are computed over. A fixed window keeps Stats() O(window)
// and the engine's memory bounded regardless of how many queries it
// serves.
const latencyWindow = 4096

// Stats is a point-in-time snapshot of an Engine's counters. Totals are
// exact, not sampled: each counter is a sum of per-stripe atomics, so
// once the recording goroutines are quiescent the sums equal the number
// of recorded events precisely.
type Stats struct {
	// Queries is the number of queries answered, including cache hits,
	// collapsed queries, and queries that failed validation.
	Queries uint64
	// CacheHits is how many of those were answered from the result cache.
	CacheHits uint64
	// Collapsed is how many were answered by joining another query's
	// in-flight computation (singleflight): identical concurrent misses
	// share one peel instead of recomputing it per caller.
	Collapsed uint64
	// Errors counts queries that returned an error (invalid or cancelled).
	Errors uint64
	// Computed counts searches actually executed — peels run, as opposed
	// to queries served — including peels that ended in an error or were
	// aborted when their last waiter left. Under a thundering herd of
	// identical misses, Queries grows with the herd while Computed grows
	// by one.
	Computed uint64
	// Fused counts queries computed through SearchBatch's fused path —
	// admitted, deduplicated, and peeled as part of a component-grouped
	// batch against one snapshot — as opposed to solo Search computations
	// (which show up in Computed only). Batch duplicates served off a
	// fused leader's peel count toward Collapsed, like singleflight
	// joins.
	Fused uint64
	// TimedOut counts queries whose deadline fired: peel-timeouts (the
	// search returned a best-so-far partial with Result.TimedOut set) and
	// queue-timeouts (the budget expired before a worker slot freed up;
	// the caller got ErrQueueTimeout and no work was done). The two are
	// distinguishable at the call site by the error; here they share one
	// counter because both mean "the deadline, not the answer, ended this
	// query". Queue-timeouts also count toward Errors.
	TimedOut uint64
	// Rejected counts queries the serving tier refused before doing any
	// search work — failed admission checks other than load shedding
	// (malformed requests, budgets too small to cover the estimated
	// peel). Recorded via NoteRejected by the tier above the engine; not
	// included in Queries.
	Rejected uint64
	// Shed counts queries refused specifically to protect the service
	// under overload (bounded-queue overflow, token-bucket exhaustion,
	// overload-state shedding). Recorded via NoteShed; not included in
	// Queries.
	Shed uint64
	// StaleServed counts queries answered from a superseded version of
	// their component through LookupStale — the degraded-mode answers the
	// serving tier hands out instead of failing under pressure. A
	// LookupStale answer at the component's CURRENT version is a plain
	// cache hit, not counted here: an Apply that never touched the
	// component leaves its answer exact. Included in Queries (the query
	// was answered), not in CacheHits (the answer was not current).
	StaleServed uint64
	// Invalidated and Retained count components across all Applies:
	// Invalidated components were superseded (their cached results,
	// sub-CSRs, and flights became unreachable on the fresh path),
	// Retained components were carried verbatim into the next snapshot
	// with caches and flights intact. Their ratio is the direct measure
	// of how component-scoped invalidation is paying off under the
	// current churn pattern.
	Invalidated, Retained uint64
	// DurableEpoch, LastCheckpoint, CheckpointFailures, and
	// WALSyncErrors are the durability counters of an engine opened
	// through OpenDurable (all zero without a WAL): the newest epoch the
	// write-ahead log considers durable under its fsync policy, the
	// epoch of the newest successful checkpoint, how many periodic
	// checkpoints have failed, and how many background fsyncs have
	// failed.
	DurableEpoch       uint64
	LastCheckpoint     uint64
	CheckpointFailures uint64
	WALSyncErrors      uint64
	// CacheEntries is the current number of cached results.
	CacheEntries int
	// P50, P95, and P99 are latency percentiles over a sliding window of
	// the most recent executed (non-cache-hit) searches; zero until the
	// first search completes.
	P50, P95, P99 time.Duration
}

// statsCollector accumulates counters across cache-line-padded stripes.
// The hot recorders (recordHit, recordServed) are single atomic adds on
// a stripe chosen per worker-scratch bundle, so concurrent queries on
// different workers never touch the same cache line — there is no stats
// mutex on the serving path at all. Latencies go into one ring of
// latencyWindow atomic slots, indexed by a global sequence number that
// only computed searches (which just spent microseconds-to-milliseconds
// peeling) pay for, so the window is exactly the most recent
// latencyWindow recordings, however they spread over stripes.
type statsCollector struct {
	seq     atomic.Uint64 // latencies recorded; recording k takes slot (k-1) % latencyWindow
	_       [120]byte
	lat     [latencyWindow]atomic.Int64 // nanoseconds; 0 until first written
	stripes []statStripe
}

// statStripe is one stripe's counters. The pad keeps two stripes'
// counters from sharing a cache line (the slice backing array lays
// stripes out contiguously).
type statStripe struct {
	queries     atomic.Uint64
	cacheHits   atomic.Uint64
	collapsed   atomic.Uint64
	errors      atomic.Uint64
	computed    atomic.Uint64
	fused       atomic.Uint64
	timedOut    atomic.Uint64
	rejected    atomic.Uint64
	shed        atomic.Uint64
	staleServed atomic.Uint64
	_           [48]byte // pad the 80 counter bytes out to two cache lines
}

// newStatsCollector builds a collector with nextPow2(stripes) stripes.
func newStatsCollector(stripes int) *statsCollector {
	return &statsCollector{stripes: make([]statStripe, nextPow2(max(1, stripes)))}
}

// numStripes returns the stripe count (a power of two).
func (s *statsCollector) numStripes() int { return len(s.stripes) }

// recordHit counts one query answered from the result cache.
//
//dmcs:hotpath
func (s *statsCollector) recordHit(stripe int) {
	st := &s.stripes[stripe]
	st.queries.Add(1)
	st.cacheHits.Add(1)
}

// recordServed counts one query answered by a completed computation —
// its own (joined=false) or one it collapsed onto (joined=true).
//
//dmcs:hotpath
func (s *statsCollector) recordServed(stripe int, joined bool) {
	st := &s.stripes[stripe]
	st.queries.Add(1)
	if joined {
		st.collapsed.Add(1)
	}
}

// recordFused counts one query computed through the fused batch path.
//
//dmcs:hotpath
func (s *statsCollector) recordFused(stripe int) {
	s.stripes[stripe].fused.Add(1)
}

// recordError counts one query that returned an error.
func (s *statsCollector) recordError(stripe int) {
	st := &s.stripes[stripe]
	st.queries.Add(1)
	st.errors.Add(1)
}

// recordTimedOut counts one deadline-ended query (queue- or
// peel-timeout). It is an add-on counter: the caller also records the
// query's outcome (recordServed for a partial, recordError for a
// queue-timeout).
//
//dmcs:hotpath
func (s *statsCollector) recordTimedOut(stripe int) {
	s.stripes[stripe].timedOut.Add(1)
}

// recordRejected counts one admission rejection by the serving tier.
func (s *statsCollector) recordRejected(stripe int) {
	s.stripes[stripe].rejected.Add(1)
}

// recordShed counts one load-shed query.
func (s *statsCollector) recordShed(stripe int) {
	s.stripes[stripe].shed.Add(1)
}

// recordStaleServed counts one query answered with a superseded epoch's
// cached result.
//
//dmcs:hotpath
func (s *statsCollector) recordStaleServed(stripe int) {
	st := &s.stripes[stripe]
	st.queries.Add(1)
	st.staleServed.Add(1)
}

// recordSearch counts one executed peel and, when the peel ran to its
// natural end (complete), records its latency in the ring.
// Errored or abandoned peels still count toward Computed — the work was
// done — but their wall-clock reflects when the failure landed, not
// search cost, so they are kept out of the percentile window. Note this
// tracks computations, not queries: the caller that triggered the peel
// separately records itself via recordServed.
//
//dmcs:hotpath
func (s *statsCollector) recordSearch(stripe int, d time.Duration, complete bool) {
	st := &s.stripes[stripe]
	st.computed.Add(1)
	if !complete {
		return
	}
	s.lat[(s.seq.Add(1)-1)%latencyWindow].Store(int64(d))
}

// snapshot sums the striped counters and computes nearest-rank
// percentiles over the latency ring. A slot whose recording has taken
// its sequence number but not yet stored, on the ring's first lap, still
// reads 0 and is skipped.
func (s *statsCollector) snapshot(cacheEntries int) Stats {
	st := Stats{CacheEntries: cacheEntries}
	for i := range s.stripes {
		sp := &s.stripes[i]
		st.Queries += sp.queries.Load()
		st.CacheHits += sp.cacheHits.Load()
		st.Collapsed += sp.collapsed.Load()
		st.Errors += sp.errors.Load()
		st.Computed += sp.computed.Load()
		st.Fused += sp.fused.Load()
		st.TimedOut += sp.timedOut.Load()
		st.Rejected += sp.rejected.Load()
		st.Shed += sp.shed.Load()
		st.StaleServed += sp.staleServed.Load()
	}
	lat := make([]time.Duration, 0, min(s.seq.Load(), latencyWindow))
	for i := range s.lat[:cap(lat)] {
		if d := s.lat[i].Load(); d > 0 {
			lat = append(lat, time.Duration(d))
		}
	}
	if len(lat) == 0 {
		return st
	}
	slices.Sort(lat)
	st.P50 = lat[ceilRank(len(lat), 50)]
	st.P95 = lat[ceilRank(len(lat), 95)]
	st.P99 = lat[ceilRank(len(lat), 99)]
	return st
}

// ceilRank returns the 0-based index of the p-th percentile under the
// ceiling nearest-rank definition: the smallest sample below which at
// least p% of the window lies. The previous floor formula
// (lat[(n-1)*p/100]) collapsed P95 onto interior ranks for small windows
// — with n < 20 it can never select the last sample, so P95 underreported
// tail latency exactly when the window was smallest.
func ceilRank(n, p int) int {
	r := (n*p + 99) / 100
	if r < 1 {
		r = 1
	}
	return r - 1
}
