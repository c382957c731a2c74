// Package server is the overload-safe HTTP serving tier around
// engine.Engine: admission control (cost-aware token buckets plus a
// bounded inflight table), client deadline budgets propagated into the
// engine's timeout machinery, graceful degradation through an overload
// state machine that falls back to epoch-stale cached answers, and
// per-request panic isolation. cmd/dmcsd is a thin flag-parsing
// wrapper; everything testable lives here.
//
// Endpoints:
//
//	POST /query   {"nodes":[...], "variant":"FPA", "timeout_ms":100}
//	POST /apply   update-stream lines (add/setw/del/node), one atomic batch
//	GET  /stats   engine counters + server admission state
//	GET  /healthz liveness + overload state
//
// A /query is built to cost little when its answer is cached: the body is
// read into pooled scratch, decoded without reflection when it is spelled
// the canonical way (decode.go says which bodies take which decoder),
// and answered from bytes the engine memoised on the cache entry
// (Engine.SearchEncoded) plus a short per-request tail, in one Write.
// Success bodies come from appendAnswer/appendTail, held byte for byte to
// encoding/json's rendering of queryResponse by test.
//
// Refusals are explicit, never silent: shed and rate-limited requests
// get 429 with a Retry-After header, queue/deadline expiries get 504
// with a code distinguishing "never started" from "ran out mid-peel",
// and degraded-mode answers carry "stale": true with the epoch they
// were computed against.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dmcs/internal/dmcs"
	"dmcs/internal/engine"
	"dmcs/internal/faultinject"
	"dmcs/internal/graph"
)

// Config tunes the serving tier. The zero value of every field selects
// a sensible default (see defaults()).
type Config struct {
	// DefaultTimeout is the deadline budget for requests that do not send
	// timeout_ms; MaxTimeout caps what clients may ask for.
	DefaultTimeout, MaxTimeout time.Duration
	// MaxInflight bounds concurrently admitted queries (the admission
	// queue). Default 8×GOMAXPROCS.
	MaxInflight int
	// ExpensiveNodes is the component size at which a query classifies as
	// expensive (whale). Default 8192.
	ExpensiveNodes int
	// Per-class token buckets: tokens/second and burst. A query costs
	// ~componentSize/256 tokens, floor 1 (see costOf).
	CheapRate, CheapBurst         float64
	ExpensiveRate, ExpensiveBurst float64
	// StaleMaxBehind is how many superseded versions of the query's own
	// component degraded-mode answers may reach back through (requires
	// the engine to run with Options.StaleRetention > 0 for ancestry to
	// be recorded). Answers at the component's current version are exact
	// — never flagged stale — regardless of this knob. Default 8.
	StaleMaxBehind int
	// Request caps fed to the decoders.
	MaxRequestBytes int64
	MaxQueryNodes   int
	MaxUpdateOps    int
	// Overload configures the degradation state machine.
	Overload OverloadConfig
	// SampleInterval is the overload controller's sampling period.
	// Default 100ms; negative disables the sampler (tests drive the state
	// directly).
	SampleInterval time.Duration
	// StateDump enables GET /debug/state, which streams the engine's
	// canonical binary state image (engine.EncodeState). Off by default:
	// it serializes the whole graph per request, so it is a diagnostic /
	// harness endpoint, not a serving one.
	StateDump bool
}

func (c *Config) defaults() {
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = 2 * time.Second
	}
	if c.MaxTimeout == 0 {
		c.MaxTimeout = 30 * time.Second
	}
	if c.MaxInflight == 0 {
		c.MaxInflight = 8 * runtime.GOMAXPROCS(0)
	}
	if c.ExpensiveNodes == 0 {
		c.ExpensiveNodes = 8192
	}
	if c.CheapRate == 0 {
		c.CheapRate = 2000
	}
	if c.CheapBurst == 0 {
		c.CheapBurst = 2 * c.CheapRate
	}
	if c.ExpensiveRate == 0 {
		c.ExpensiveRate = 64
	}
	if c.ExpensiveBurst == 0 {
		c.ExpensiveBurst = 2 * c.ExpensiveRate
	}
	if c.StaleMaxBehind == 0 {
		c.StaleMaxBehind = 8
	}
	if c.MaxRequestBytes == 0 {
		c.MaxRequestBytes = defaultMaxRequestBytes
	}
	if c.MaxQueryNodes == 0 {
		c.MaxQueryNodes = defaultMaxQueryNodes
	}
	if c.MaxUpdateOps == 0 {
		c.MaxUpdateOps = defaultMaxUpdateOps
	}
	if c.SampleInterval == 0 {
		c.SampleInterval = 100 * time.Millisecond
	}
}

// Server is the HTTP serving tier. Create with New, serve via
// ServeHTTP (it implements http.Handler), shut down with StartDrain
// (new requests get 503; pair with http.Server.Shutdown to drain
// in-flight ones) and Close (stops the overload sampler).
type Server struct {
	eng *engine.Engine
	cfg Config
	mux *http.ServeMux

	inflight chan struct{} // admission queue: one slot per admitted query
	buckets  [numClasses]*tokenBucket
	ests     [numClasses]*latEstimator

	state    atomic.Int32 // OverloadState, published by the sampler
	draining atomic.Bool
	closed   atomic.Bool
	stop     chan struct{}
	done     chan struct{}
}

// New builds a Server around eng and starts its overload sampler
// (unless cfg.SampleInterval < 0). Callers own eng's lifecycle.
func New(eng *engine.Engine, cfg Config) *Server {
	cfg.defaults()
	s := &Server{
		eng:      eng,
		cfg:      cfg,
		mux:      http.NewServeMux(),
		inflight: make(chan struct{}, cfg.MaxInflight),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	now := time.Now()
	s.buckets[classCheap] = newTokenBucket(cfg.CheapRate, cfg.CheapBurst, now)
	s.buckets[classExpensive] = newTokenBucket(cfg.ExpensiveRate, cfg.ExpensiveBurst, now)
	for c := range s.ests {
		s.ests[c] = &latEstimator{}
	}
	s.mux.HandleFunc("/query", s.handleQuery)
	s.mux.HandleFunc("/apply", s.handleApply)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	if cfg.StateDump {
		s.mux.HandleFunc("/debug/state", s.handleStateDump)
	}
	if cfg.SampleInterval > 0 {
		go s.sample()
	} else {
		close(s.done)
	}
	return s
}

// sample periodically feeds the overload controller and publishes its
// state. Engine.Stats is O(latency window) per call; at the default
// 10 Hz that is noise.
func (s *Server) sample() {
	defer close(s.done)
	ctrl := newOverloadController(s.cfg.Overload)
	tick := time.NewTicker(s.cfg.SampleInterval)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-tick.C:
			frac := float64(len(s.inflight)) / float64(cap(s.inflight))
			st := s.eng.Stats()
			s.state.Store(int32(ctrl.Observe(frac, st.P99)))
		}
	}
}

// State reports the current overload state.
func (s *Server) State() OverloadState { return OverloadState(s.state.Load()) }

// StartDrain flips the server into draining: every subsequent request
// is refused with 503. In-flight requests finish normally — pair with
// http.Server.Shutdown, which waits for them.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Close stops the overload sampler. Idempotent; does not wait for
// in-flight requests (that is http.Server.Shutdown's job).
func (s *Server) Close() {
	if s.closed.CompareAndSwap(false, true) {
		close(s.stop)
	}
	<-s.done
}

// ServeHTTP implements http.Handler with per-request panic containment:
// a panicking handler (injected or real) answers 500 instead of taking
// the whole process down. The engine's own peel-panic isolation sits a
// layer below; this net catches everything else.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if rec := recover(); rec != nil {
			if rec == http.ErrAbortHandler {
				panic(rec) // deliberate connection abort (dropped-response injection)
			}
			// Headers may already be out; WriteHeader then is a no-op plus a
			// server log line, which is the best available answer.
			writeError(w, http.StatusInternalServerError, "panic", fmt.Sprintf("handler panicked: %v", rec), 0)
		}
	}()
	s.mux.ServeHTTP(w, r)
}

type errorBody struct {
	Code  string `json:"code"`
	Error string `json:"error"`
}

// writeError emits the uniform refusal shape. retryAfter > 0 adds a
// Retry-After header (rounded up to whole seconds, minimum 1).
func writeError(w http.ResponseWriter, status int, code, msg string, retryAfter time.Duration) {
	if retryAfter > 0 {
		secs := int64((retryAfter + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorBody{Code: code, Error: msg})
}

// respondFault is the dropped-response injection point every success
// body passes before its first byte goes out: a Drop directive aborts the
// connection mid-response, the client-visible shape of a server that
// computed an answer and died sending it. It reports whether it answered
// the request itself.
func respondFault(w http.ResponseWriter) bool {
	err := faultinject.Fire(faultinject.ServerRespond)
	if err == nil {
		return false
	}
	if errors.Is(err, faultinject.ErrDropped) {
		panic(http.ErrAbortHandler)
	}
	writeError(w, http.StatusInternalServerError, "injected", err.Error(), 0)
	return true
}

// jsonContentType is writeResult's Content-Type header value, shared so
// that a hit stores a header without building one.
var jsonContentType = []string{"application/json"}

// writeJSON emits the /apply and /stats success bodies through
// encoding/json. /query answers do not come this way — see writeResult.
func (s *Server) writeJSON(w http.ResponseWriter, v any) {
	if respondFault(w) {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Server) shed(w http.ResponseWriter, msg string, retryAfter time.Duration) {
	s.eng.NoteShed()
	writeError(w, http.StatusTooManyRequests, "shed", msg, retryAfter)
}

// queryResponse is the POST /query success shape. It is written by
// appendAnswer and appendTail, not by encoding/json: a field added,
// renamed or reordered here has to be made there too, and
// TestQueryResponseBytesMatchEncodingJSON fails until it is.
type queryResponse struct {
	Community []graph.Node `json:"community"`
	Size      int          `json:"size"`
	Score     float64      `json:"score"`
	// Epoch is the version of the query's component the answer was
	// computed against — the epoch at which that component last changed,
	// not the graph's global epoch. Exact for stale answers; best-effort
	// (captured at classification) for fresh ones.
	Epoch uint64 `json:"epoch"`
	// Stale marks a degraded-mode answer served from a superseded version
	// of the query's component. An answer at the component's current
	// version is exact and never flagged, even when the rest of the graph
	// has churned since it was computed.
	Stale bool `json:"stale"`
	// TimedOut marks a best-so-far partial whose peel hit the deadline.
	TimedOut  bool  `json:"timed_out"`
	ElapsedUS int64 `json:"elapsed_us"`
}

// appendAnswer appends the part of a /query success body that depends on
// the result alone — {"community":[…],"size":N,"score":S, which is what
// the engine memoises on a cache entry — byte for byte as encoding/json
// renders those queryResponse fields. It returns nil for a score
// encoding/json refuses (NaN, ±Inf).
//
//dmcs:hotpath
func appendAnswer(b []byte, res *dmcs.Result) []byte {
	if math.IsNaN(res.Score) || math.IsInf(res.Score, 0) {
		return nil
	}
	b = append(b, `{"community":`...)
	if res.Community == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, u := range res.Community {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(u), 10)
		}
		b = append(b, ']')
	}
	b = append(b, `,"size":`...)
	b = strconv.AppendInt(b, int64(len(res.Community)), 10)
	b = append(b, `,"score":`...)
	// encoding/json's float64 rule: shortest digits that round-trip, 'e'
	// form outside [1e-6, 1e21), and a two-digit negative exponent
	// trimmed of its leading zero.
	format := byte('f')
	if abs := math.Abs(res.Score); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, res.Score, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// encodeAnswer is appendAnswer as the engine's SearchEncoded calls it on
// an entry's first hit; the engine keeps an exact-size copy.
func encodeAnswer(res *dmcs.Result) []byte {
	return appendAnswer(make([]byte, 0, 64+8*len(res.Community)), res)
}

// appendTail appends the per-request remainder of the body after
// appendAnswer's bytes, closing brace and encoding/json's newline
// included.
//
//dmcs:hotpath
func appendTail(b []byte, epoch uint64, stale, timedOut bool, elapsedUS int64) []byte {
	b = append(b, `,"epoch":`...)
	b = strconv.AppendUint(b, epoch, 10)
	b = append(b, `,"stale":`...)
	b = strconv.AppendBool(b, stale)
	b = append(b, `,"timed_out":`...)
	b = strconv.AppendBool(b, timedOut)
	b = append(b, `,"elapsed_us":`...)
	b = strconv.AppendInt(b, elapsedUS, 10)
	return append(b, '}', '\n')
}

// queryScratch is the recycled storage of one /query: buf holds the
// request body until it is decoded and the response body after that, ids
// the decoded node ids.
type queryScratch struct {
	buf []byte
	ids []graph.Node
}

// queryScratchPool recycles queryScratch across requests. Recycling ids
// is sound only because nothing downstream keeps the slice: the engine
// copies the set (normalizeNodesInto) before it hands anything to a
// flight goroutine, and Snapshot.ComponentID and LookupStale only read
// it. maxPooledBuf keeps one large body or whale answer from pinning its
// buffer in the pool for good.
var queryScratchPool = sync.Pool{New: func() any {
	return &queryScratch{buf: make([]byte, 0, 1024), ids: make([]graph.Node, 0, 16)}
}}

const maxPooledBuf = 256 << 10

//dmcs:acquire putQueryScratch
func getQueryScratch() *queryScratch {
	return queryScratchPool.Get().(*queryScratch)
}

func putQueryScratch(sc *queryScratch) {
	if cap(sc.buf) <= maxPooledBuf {
		queryScratchPool.Put(sc)
	}
}

// readBody reads r to EOF into buf's spare capacity, growing it only
// when a body does not fit: io.ReadAll without the fresh buffer.
func readBody(buf []byte, r io.Reader) ([]byte, error) {
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "invalid", "POST only", 0)
		return
	}
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining", "server is draining", 0)
		return
	}
	start := time.Now()
	sc := getQueryScratch()
	defer putQueryScratch(sc)
	// MaxBytesReader is the request-size guard, and the one allocation a
	// cache hit still makes.
	var err error
	sc.buf, err = readBody(sc.buf, http.MaxBytesReader(w, r.Body, s.cfg.MaxRequestBytes))
	if err != nil {
		s.eng.NoteRejected()
		writeError(w, http.StatusBadRequest, "invalid", "reading body: "+err.Error(), 0)
		return
	}
	if err := faultinject.Fire(faultinject.ServerDecode); err != nil {
		writeError(w, http.StatusInternalServerError, "injected", err.Error(), 0)
		return
	}
	req, variant, err := decodeQuery(sc.buf, s.cfg.MaxQueryNodes, sc.ids)
	if err != nil {
		s.eng.NoteRejected()
		writeError(w, http.StatusBadRequest, "invalid", err.Error(), 0)
		return
	}
	sc.ids = req.Nodes // at most MaxQueryNodes long; keeps what decoding grew
	q := engine.Query{
		Nodes:   req.Nodes,
		Variant: variant,
		// Mirror the CLI's option policy so cache keys line up across
		// entry points (and with LookupStale probes below).
		Opts: dmcs.Options{LayerPruning: variant == dmcs.VariantFPA},
	}
	budget := req.timeoutOf(s.cfg.DefaultTimeout, s.cfg.MaxTimeout)

	// Classify by the size of the component the query would peel. This is
	// also the first validation gate: unknown nodes and cross-component
	// query sets are rejected before costing anything. The component's
	// version is captured here too — it is what the response reports as
	// "epoch" (best-effort for fresh answers: an Apply racing the query
	// may advance it before the peel runs; exact for degraded answers,
	// which LookupStale versions itself).
	snap := s.eng.Snapshot()
	compIdx, err := snap.ComponentID(req.Nodes)
	if err != nil {
		s.eng.NoteRejected()
		writeError(w, http.StatusBadRequest, "invalid", err.Error(), 0)
		return
	}
	compVer := snap.ComponentVersion(compIdx)
	comp := snap.ComponentMembers(compIdx)
	class := classCheap
	if len(comp) >= s.cfg.ExpensiveNodes {
		class = classExpensive
	}

	// Degraded modes answer from cache (stale allowed) or shed — no new
	// peels for the classes being protected against.
	state := s.State()
	if state == StateStaleServe || (state == StateShedExpensive && class == classExpensive) {
		if !req.NoStale {
			// Staleness comes from LookupStale itself, per component: an
			// answer at the query component's current version is exact and
			// NOT flagged, no matter how many Applies have landed elsewhere
			// in the graph; only an answer from a superseded version of
			// this component is marked stale.
			if res, ver, stale, ok := s.eng.LookupStale(q, s.cfg.StaleMaxBehind); ok {
				s.writeResult(w, sc, res, nil, ver, stale, time.Since(start))
				return
			}
		}
		if state == StateStaleServe {
			s.shed(w, "overloaded: serving cached answers only", s.cfg.SampleInterval)
		} else {
			s.shed(w, "overloaded: shedding expensive queries", s.cfg.SampleInterval)
		}
		return
	}

	// One clock read serves the bucket, the budget arithmetic and the
	// start of the peel; the next one is taken when Search returns.
	now := time.Now()

	// Cost-aware rate limit, then the bounded admission queue. Both
	// refuse instantly — buffering past capacity only converts overload
	// into latency.
	if ok, retry := s.buckets[class].take(costOf(len(comp)), now); !ok {
		s.shed(w, class.String()+"-class rate limit", retry)
		return
	}
	select {
	case s.inflight <- struct{}{}:
	default:
		s.shed(w, "admission queue full", s.cfg.SampleInterval)
		return
	}
	defer func() { <-s.inflight }()

	// Pre-work budget check: if this class's typical peel already
	// overshoots the remaining budget, reject now instead of burning a
	// worker slot to produce a doomed partial.
	elapsed := now.Sub(start)
	if est := s.ests[class].estimate(); est > 0 && elapsed+est > budget {
		s.eng.NoteRejected()
		writeError(w, http.StatusUnprocessableEntity, "budget",
			fmt.Sprintf("deadline budget %v cannot cover estimated %v peel", budget, est), 0)
		return
	}

	// The engine deducts its own queue wait from Opts.Timeout
	// (acquireSlot); the server deducts the time spent here before
	// dispatch so the client's deadline is honored end to end.
	q.Opts.Timeout = budget - elapsed
	ctx := r.Context()
	res, wire, err := s.eng.SearchEncoded(ctx, q, encodeAnswer)
	end := time.Now()
	if err != nil {
		var pe *engine.PanicError
		switch {
		case errors.Is(err, engine.ErrQueueTimeout):
			writeError(w, http.StatusGatewayTimeout, "queue_timeout",
				"query timed out while queued; search never started", s.cfg.SampleInterval)
		case errors.As(err, &pe):
			writeError(w, http.StatusInternalServerError, "panic",
				fmt.Sprintf("search panicked: %v", pe.Value), 0)
		case errors.Is(err, faultinject.ErrInjected) || errors.Is(err, faultinject.ErrDropped):
			writeError(w, http.StatusInternalServerError, "injected", err.Error(), 0)
		case ctx.Err() != nil && errors.Is(err, ctx.Err()):
			writeError(w, http.StatusGatewayTimeout, "timeout", err.Error(), 0)
		default:
			writeError(w, http.StatusBadRequest, "invalid", err.Error(), 0)
		}
		return
	}
	if !res.TimedOut {
		s.ests[class].observe(end.Sub(now))
	}
	s.writeResult(w, sc, res, wire, compVer, false, end.Sub(start))
}

// writeResult sends a /query success body: the answer's memoised bytes
// when the engine returned them (wire; a repeated hit), else the answer
// encoded on the spot, then the per-request tail — assembled in sc.buf
// and sent with one Write.
func (s *Server) writeResult(w http.ResponseWriter, sc *queryScratch, res *dmcs.Result, wire []byte, epoch uint64, stale bool, elapsed time.Duration) {
	out := sc.buf[:0]
	if wire != nil {
		out = append(out, wire...)
	} else if out = appendAnswer(out, res); out == nil {
		writeError(w, http.StatusInternalServerError, "internal", "result has no JSON encoding: non-finite score", 0)
		return
	}
	out = appendTail(out, epoch, stale, res.TimedOut, elapsed.Microseconds())
	sc.buf = out
	if respondFault(w) {
		return
	}
	w.Header()["Content-Type"] = jsonContentType
	_, _ = w.Write(out) // a failed Write is a gone client; there is no one to tell
}

// applyResponse is the POST /apply success shape (engine.ApplyStats on
// the wire).
type applyResponse struct {
	Epoch          uint64 `json:"epoch"`
	NodesAdded     int    `json:"nodes_added"`
	EdgesAdded     int    `json:"edges_added"`
	EdgesRemoved   int    `json:"edges_removed"`
	WeightsChanged int    `json:"weights_changed"`
	RefloodedNodes int    `json:"reflooded_nodes"`
	Components     int    `json:"components"`
	Invalidated    int    `json:"invalidated"`
	Retained       int    `json:"retained"`
}

func (s *Server) handleApply(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "invalid", "POST only", 0)
		return
	}
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining", "server is draining", 0)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxRequestBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid", "reading body: "+err.Error(), 0)
		return
	}
	if err := faultinject.Fire(faultinject.ServerDecode); err != nil {
		writeError(w, http.StatusInternalServerError, "injected", err.Error(), 0)
		return
	}
	batch, err := parseUpdateOps(body, s.cfg.MaxUpdateOps)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid", err.Error(), 0)
		return
	}
	st, err := s.eng.Apply(batch)
	if err != nil {
		// The WAL refused the append: nothing was published and nothing is
		// acknowledged. 503 + Retry-After because a transient fsync stall
		// is retryable; a failed-stop log keeps answering this until the
		// process is restarted (which runs recovery).
		writeError(w, http.StatusServiceUnavailable, "durability",
			"batch not applied: "+err.Error(), s.cfg.SampleInterval)
		return
	}
	s.writeJSON(w, applyResponse{
		Epoch:          st.Epoch,
		NodesAdded:     st.NodesAdded,
		EdgesAdded:     st.EdgesAdded,
		EdgesRemoved:   st.EdgesRemoved,
		WeightsChanged: st.WeightsChanged,
		RefloodedNodes: st.RefloodedNodes,
		Components:     st.Components,
		Invalidated:    st.Invalidated,
		Retained:       st.Retained,
	})
}

// statsResponse is the GET /stats shape: raw engine counters plus the
// admission tier's live state. Durations are nanoseconds. The durable
// block is present only when the engine runs with a WAL; recovery is
// present only when this process recovered state at boot.
type statsResponse struct {
	Engine engine.Stats `json:"engine"`
	Server struct {
		State       string `json:"state"`
		Draining    bool   `json:"draining"`
		Inflight    int    `json:"inflight"`
		InflightCap int    `json:"inflight_cap"`
		Epoch       uint64 `json:"epoch"`
	} `json:"server"`
	Durable  *durableStats        `json:"durable,omitempty"`
	Recovery *engine.RecoveryInfo `json:"recovery,omitempty"`
}

// durableStats is the /stats and /healthz durability block.
type durableStats struct {
	// DurableEpoch is the newest epoch the WAL guarantees survives a
	// crash under its fsync policy; Epoch - DurableEpoch is the
	// acknowledged-but-not-yet-fsynced window (0 under -fsync always).
	DurableEpoch uint64 `json:"durable_epoch"`
	// LastCheckpoint is the epoch of the newest checkpoint; replay after
	// a crash starts there.
	LastCheckpoint uint64 `json:"last_checkpoint"`
}

// durable returns the durability block, or nil without a WAL.
func (s *Server) durable() *durableStats {
	ep, ok := s.eng.DurableEpoch()
	if !ok {
		return nil
	}
	st := s.eng.Stats()
	return &durableStats{DurableEpoch: ep, LastCheckpoint: st.LastCheckpoint}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	var resp statsResponse
	resp.Engine = s.eng.Stats()
	resp.Server.State = s.State().String()
	resp.Server.Draining = s.draining.Load()
	resp.Server.Inflight = len(s.inflight)
	resp.Server.InflightCap = cap(s.inflight)
	resp.Server.Epoch = s.eng.Epoch()
	resp.Durable = s.durable()
	if ri, ok := s.eng.Recovery(); ok {
		resp.Recovery = &ri
	}
	s.writeJSON(w, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := http.StatusOK
	if s.draining.Load() {
		status = http.StatusServiceUnavailable
	}
	body := map[string]any{
		"state":    s.State().String(),
		"draining": s.draining.Load(),
	}
	if d := s.durable(); d != nil {
		body["durable_epoch"] = d.DurableEpoch
		body["last_checkpoint"] = d.LastCheckpoint
		if ri, ok := s.eng.Recovery(); ok {
			body["recovered_epoch"] = ri.RecoveredEpoch
			body["recovery_fresh"] = ri.FreshStart
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

// handleStateDump streams the engine's canonical state image — the
// checkpoint encoding of the current snapshot. Two processes hold
// bit-identical graph state iff their dumps are byte-equal, which is
// exactly how the kill-crash harness compares a recovered server
// against its reference.
func (s *Server) handleStateDump(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "invalid", "GET only", 0)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_ = s.eng.WriteStateDump(w)
}
