// Package faultinject is the repository's build-tag-free fault-injection
// registry: a fixed set of named injection points threaded through the
// serving stack (engine peel, engine apply, the dmcsd admission and
// response paths), each of which can be armed at runtime with a latency,
// an error, a panic, or a dropped-response directive. The chaos test
// suites drive it; production builds carry the same code, disarmed.
//
// The registry is designed around one constraint: when nothing is armed
// — the permanent state of any real deployment — an injection point must
// cost one atomic load and nothing else. Fire's fast path is
//
//	if armed.Load() == 0 { return nil }
//
// with no allocation, no map lookup, no lock, and no time.Now call, so
// injection points may sit on the engine's zero-alloc cache-hit path
// without breaking its 0 allocs/op gate (internal/engine's
// TestEngineCacheHitInjectGate asserts exactly that). When at least one point
// is armed, Fire loads the point's atomic.Pointer slot; points other
// than the armed ones still allocate nothing.
//
// Arming is test-side API: Set installs an Injection on a point, Clear
// and Reset disarm. An Injection can fire on every pass, every Nth pass
// (Every), or a bounded number of times (Limit), which is how chaos
// tests inject "one poisoned query" into a storm without taking the
// whole run down.
//
// Adding a new injection point is a three-line change; see
// CONTRIBUTING.md "Adding a fault-injection point".
package faultinject

import (
	"errors"
	"sync/atomic"
	"time"
)

// Point identifies one injection site. Points are a fixed enum (not
// strings) so Fire's armed-path lookup is an array index — no hashing,
// no allocation — and so the compiler can prove call sites cheap.
type Point uint8

const (
	// EngineSearch fires at the top of the engine's admission, once per
	// query — Engine.Search, every query of a SearchBatch, LookupStale —
	// on the cache-hit path, which is exactly why it exists: it is the
	// point the zero-cost-when-disabled gate measures.
	EngineSearch Point = iota
	// EnginePeel fires inside the engine's search execution, immediately
	// before the peel kernel runs — the place to inject peel latency
	// (slow query), a peel error, or a mid-serving panic (poisoned
	// query).
	EnginePeel
	// EngineApply fires inside Engine.Apply while the writer lock is
	// held — the slow-Apply point: injected latency here stalls graph
	// mutation while queries keep draining on the old snapshot.
	EngineApply
	// ServerDecode fires in dmcsd after a request has been decoded and
	// before admission — the place to inject admission-side errors and
	// latency (slow middleware, auth stalls).
	ServerDecode
	// ServerRespond fires in dmcsd immediately before the response is
	// written. An Injection with Drop set makes the server abandon the
	// write (the client sees a connection reset / truncated body), the
	// slow-client / dropped-response chaos case.
	ServerRespond
	// WALAppend fires inside wal.Log.Append before the record frame is
	// written — the full-disk / failed-write case: an injected error here
	// fails the Apply that triggered the append, and injecting the WAL's
	// ErrTornWrite sentinel makes Append leave a deliberately truncated
	// frame on disk before failing (the torn-write crash image recovery
	// must tolerate at the tail and refuse mid-log).
	WALAppend
	// WALSync fires before each fsync of the active WAL segment (both the
	// per-append sync of the `always` policy and the background flusher of
	// `interval`) — the place to inject fsync latency or failure.
	WALSync
	// CheckpointWrite fires at the top of wal.Log.WriteCheckpoint — an
	// injected error aborts the checkpoint (the previous one stays
	// authoritative), and ErrTornWrite leaves a truncated checkpoint file
	// that recovery must reject by checksum and fall past.
	CheckpointWrite
	numPoints
)

// String returns the point's registry name, as used in CONTRIBUTING.md.
func (p Point) String() string {
	switch p {
	case EngineSearch:
		return "engine.search"
	case EnginePeel:
		return "engine.peel"
	case EngineApply:
		return "engine.apply"
	case ServerDecode:
		return "server.decode"
	case ServerRespond:
		return "server.respond"
	case WALAppend:
		return "wal.append"
	case WALSync:
		return "wal.sync"
	case CheckpointWrite:
		return "wal.checkpoint"
	}
	return "unknown"
}

// ErrInjected is the default error an armed point returns when its
// Injection sets Err == nil but still needs a failure outcome (Drop
// points aside, an armed error injection with no explicit error means
// "fail generically").
var ErrInjected = errors.New("faultinject: injected error")

// ErrDropped is returned by Fire at a point whose Injection has Drop
// set: the caller must abandon its response instead of writing it.
// Only the server respond path interprets it; everywhere else it
// surfaces like any injected error.
var ErrDropped = errors.New("faultinject: response dropped")

// Injection is what an armed point does when it fires. Zero-valued
// fields are inert; combining fields is allowed and executes in the
// order latency → panic → drop → error.
type Injection struct {
	// Latency is slept before anything else — the slow-peel / slow-Apply
	// / slow-middleware injection.
	Latency time.Duration
	// Err, when non-nil, is returned from Fire. A directive-free
	// Injection (no latency, panic, drop, or error) returns ErrInjected
	// so arming a point is never a silent no-op; a latency-only
	// Injection sleeps and then proceeds (returns nil).
	Err error
	// Panic, when non-empty, makes Fire panic with this value — the
	// poisoned-query case. Per-query panic isolation in the engine and
	// server converts it into one failed response.
	Panic string
	// Drop, when set, makes Fire return ErrDropped.
	Drop bool
	// Every fires the injection on every Nth pass through the point
	// (1 or 0 = every pass). Passes that don't fire pay two atomic ops
	// and inject nothing.
	Every int
	// Limit, when > 0, disarms the injection after it has fired that
	// many times — "inject exactly K panics into the storm".
	Limit int
}

// armedInjection is the installed form: the directive plus its firing
// counters.
type armedInjection struct {
	inj   Injection
	hits  atomic.Int64 // passes through the point while armed
	fired atomic.Int64 // times the injection actually fired
}

// armed counts installed injections; the zero check is Fire's entire
// fast path. points holds one slot per Point.
var (
	armed  atomic.Int32
	points [numPoints]atomic.Pointer[armedInjection]
)

// Fire executes point p's armed injection, if any: it sleeps the
// injected latency, panics if a panic is injected, and returns the
// injected error (ErrDropped for Drop directives). With nothing armed
// anywhere — the production state — it is a single atomic load.
func Fire(p Point) error {
	if armed.Load() == 0 {
		return nil
	}
	return fireSlow(p)
}

// fireSlow is the armed path, kept out of Fire so the fast path stays
// trivially inlinable.
func fireSlow(p Point) error {
	ai := points[p].Load()
	if ai == nil {
		return nil
	}
	hit := ai.hits.Add(1)
	if every := int64(ai.inj.Every); every > 1 && hit%every != 0 {
		return nil
	}
	if limit := int64(ai.inj.Limit); limit > 0 {
		if fired := ai.fired.Add(1); fired > limit {
			return nil
		}
	} else {
		ai.fired.Add(1)
	}
	if ai.inj.Latency > 0 {
		time.Sleep(ai.inj.Latency)
	}
	if ai.inj.Panic != "" {
		panic("faultinject: " + ai.inj.Panic)
	}
	if ai.inj.Drop {
		return ErrDropped
	}
	if ai.inj.Err != nil {
		return ai.inj.Err
	}
	if ai.inj.Latency > 0 {
		// Latency-only: slow, then proceed.
		return nil
	}
	return ErrInjected
}

// Set arms point p with inj, replacing any previous injection on it.
func Set(p Point, inj Injection) {
	if points[p].Swap(&armedInjection{inj: inj}) == nil {
		armed.Add(1)
	}
}

// Clear disarms point p.
func Clear(p Point) {
	if points[p].Swap(nil) != nil {
		armed.Add(-1)
	}
}

// Reset disarms every point — chaos tests defer this so one test's
// injections can never leak into the next.
func Reset() {
	for p := Point(0); p < numPoints; p++ {
		Clear(p)
	}
}

// Fired reports how many times point p's current injection has actually
// fired (0 if disarmed). Test-side assertion API.
func Fired(p Point) int {
	ai := points[p].Load()
	if ai == nil {
		return 0
	}
	n := ai.fired.Load()
	if limit := int64(ai.inj.Limit); limit > 0 && n > limit {
		n = limit
	}
	return int(n)
}

// Hits reports how many times point p has been passed while armed
// (fired or not). Test-side assertion API.
func Hits(p Point) int {
	ai := points[p].Load()
	if ai == nil {
		return 0
	}
	return int(ai.hits.Load())
}

// Armed reports whether any point is currently armed. The serving tier
// may consult it for diagnostics; it is never needed for correctness.
func Armed() bool { return armed.Load() != 0 }
