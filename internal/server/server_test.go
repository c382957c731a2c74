package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dmcs/internal/dmcs"
	"dmcs/internal/engine"
	"dmcs/internal/faultinject"
	"dmcs/internal/graph"
	"dmcs/internal/wal"
)

// serverTestGraph builds the serving fixture: numSmall ring+chord
// communities of smallSize nodes each, plus one whale ring of whaleSize
// nodes — so cheap-class and expensive-class queries coexist in one
// graph. The whale's first node id is numSmall*smallSize.
func serverTestGraph(numSmall, smallSize, whaleSize int) *graph.Graph {
	b := graph.NewBuilder(numSmall*smallSize + whaleSize)
	for c := 0; c < numSmall; c++ {
		base := c * smallSize
		for i := 0; i < smallSize; i++ {
			u := graph.Node(base + i)
			b.AddEdge(u, graph.Node(base+(i+1)%smallSize))
			b.AddEdge(u, graph.Node(base+(i+3)%smallSize))
		}
	}
	wbase := numSmall * smallSize
	for i := 0; i < whaleSize; i++ {
		u := graph.Node(wbase + i)
		b.AddEdge(u, graph.Node(wbase+(i+1)%whaleSize))
		b.AddEdge(u, graph.Node(wbase+(i+7)%whaleSize))
	}
	return b.Build()
}

const (
	tgSmallComms = 16
	tgSmallSize  = 16
	tgWhaleSize  = 512
	tgWhaleBase  = tgSmallComms * tgSmallSize
)

// newTestServer wires a Server around a fresh fixture engine. The
// sampler is disabled (SampleInterval -1): tests drive the overload
// state directly through s.state.
func newTestServer(t *testing.T, ecfg engine.Options, scfg Config) (*Server, *engine.Engine) {
	t.Helper()
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	eng := engine.New(serverTestGraph(tgSmallComms, tgSmallSize, tgWhaleSize), ecfg)
	if scfg.SampleInterval == 0 {
		scfg.SampleInterval = -1
	}
	if scfg.ExpensiveNodes == 0 {
		scfg.ExpensiveNodes = 256 // whale (512) is expensive, communities (16) are cheap
	}
	s := New(eng, scfg)
	t.Cleanup(s.Close)
	return s, eng
}

// post runs one request straight through the handler stack.
func post(s *Server, path, body string) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return w
}

func get(s *Server, path string) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	return w
}

func decodeBody[T any](t *testing.T, w *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil {
		t.Fatalf("decoding response %q: %v", w.Body.String(), err)
	}
	return v
}

func wantCode(t *testing.T, w *httptest.ResponseRecorder, status int, code string) errorBody {
	t.Helper()
	if w.Code != status {
		t.Fatalf("status %d (%s), want %d", w.Code, w.Body.String(), status)
	}
	eb := decodeBody[errorBody](t, w)
	if eb.Code != code {
		t.Fatalf("error code %q (%s), want %q", eb.Code, eb.Error, code)
	}
	return eb
}

func TestQueryEndpoint(t *testing.T) {
	s, eng := newTestServer(t, engine.Options{}, Config{})
	w := post(s, "/query", `{"nodes":[0,1]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	resp := decodeBody[queryResponse](t, w)
	if resp.Stale || resp.TimedOut {
		t.Fatalf("fresh uncontended answer flagged stale=%v timed_out=%v", resp.Stale, resp.TimedOut)
	}
	if resp.Size != len(resp.Community) || resp.Size == 0 {
		t.Fatalf("size %d vs community %d", resp.Size, len(resp.Community))
	}
	// Must match the engine answering directly.
	direct, err := eng.Search(t.Context(), engine.Query{
		Nodes: []graph.Node{0, 1},
		Opts:  optsFPA(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(direct.Community) != len(resp.Community) || direct.Score != resp.Score {
		t.Fatalf("HTTP answer (%d nodes, %v) != direct answer (%d nodes, %v)",
			len(resp.Community), resp.Score, len(direct.Community), direct.Score)
	}
	for i := range direct.Community {
		if direct.Community[i] != resp.Community[i] {
			t.Fatalf("community[%d] = %d, want %d", i, resp.Community[i], direct.Community[i])
		}
	}
}

func TestQueryValidation(t *testing.T) {
	s, eng := newTestServer(t, engine.Options{}, Config{MaxQueryNodes: 4})
	cases := []struct {
		name, body string
	}{
		{"bad json", `{"nodes":`},
		{"empty body", ``},
		{"no nodes", `{"nodes":[]}`},
		{"unknown field", `{"nodes":[0],"bogus":1}`},
		{"unknown variant", `{"nodes":[0],"variant":"QUANTUM"}`},
		{"negative timeout", `{"nodes":[0],"timeout_ms":-5}`},
		{"negative node", `{"nodes":[-1]}`},
		{"too many nodes", `{"nodes":[0,1,2,3,4]}`},
		{"out of range", `{"nodes":[99999999]}`},
		{"disconnected", fmt.Sprintf(`{"nodes":[0,%d]}`, tgWhaleBase)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantCode(t, post(s, "/query", tc.body), http.StatusBadRequest, "invalid")
		})
	}
	if got := eng.Stats().Rejected; got != uint64(len(cases)) {
		t.Fatalf("Rejected = %d, want %d", got, len(cases))
	}
	wantCode(t, get(s, "/query"), http.StatusMethodNotAllowed, "invalid")
}

func TestApplyEndpoint(t *testing.T) {
	s, eng := newTestServer(t, engine.Options{}, Config{})
	// Split community 0's ring by cutting enough edges around node 0
	// that its membership changes observably; easier: bridge two small
	// communities and check the component merge shows up.
	w := post(s, "/apply", fmt.Sprintf("# bridge comm0 and comm1\nadd 0 %d\n", tgSmallSize))
	if w.Code != http.StatusOK {
		t.Fatalf("apply status %d: %s", w.Code, w.Body.String())
	}
	ar := decodeBody[applyResponse](t, w)
	if ar.Epoch != 1 || ar.EdgesAdded != 1 {
		t.Fatalf("apply reported %+v, want epoch 1, one edge added", ar)
	}
	if eng.Epoch() != 1 {
		t.Fatalf("engine epoch %d after apply", eng.Epoch())
	}
	// The two communities are now one component: a cross-community query
	// is valid post-apply.
	w = post(s, "/query", fmt.Sprintf(`{"nodes":[0,%d]}`, tgSmallSize))
	if w.Code != http.StatusOK {
		t.Fatalf("cross-community query after bridge: %d %s", w.Code, w.Body.String())
	}
	if resp := decodeBody[queryResponse](t, w); resp.Epoch != 1 {
		t.Fatalf("query epoch %d, want 1", resp.Epoch)
	}

	wantCode(t, post(s, "/apply", "frobnicate 1 2\n"), http.StatusBadRequest, "invalid")
	wantCode(t, post(s, "/apply", "add 1 99999999999\n"), http.StatusBadRequest, "invalid")
}

// TestApplyRejectsHostileWeights: a NaN, infinite or negative weight is a
// 400 at the parser. Nothing reaches the engine — its epoch, its log and
// its answers stay where they were, across a restart too (such a batch,
// once logged, used to turn every later query of the component into a
// 500 for good).
func TestApplyRejectsHostileWeights(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	wopts := wal.Options{Dir: t.TempDir()}
	g := serverTestGraph(tgSmallComms, tgSmallSize, tgWhaleSize)
	eng, _, err := engine.OpenDurable(g, wopts, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(eng, Config{SampleInterval: -1})
	before := decodeBody[queryResponse](t, post(s, "/query", `{"nodes":[1]}`))
	for _, body := range []string{"setw 1 2 NaN\n", "add 1 2\nadd 3 4 -Inf\n", "add 1 2 +Inf\n", "setw 1 2 -1\n"} {
		wantCode(t, post(s, "/apply", body), http.StatusBadRequest, "invalid")
	}
	if eng.Epoch() != 0 {
		t.Fatalf("engine epoch %d after rejected batches, want 0", eng.Epoch())
	}
	w := post(s, "/query", `{"nodes":[1]}`)
	if after := decodeBody[queryResponse](t, w); w.Code != http.StatusOK || after.Score != before.Score || after.Epoch != 0 {
		t.Fatalf("query after rejected batches: %d %+v, want %+v", w.Code, after, before)
	}
	s.Close()
	if err := eng.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	eng, rec, err := engine.OpenDurable(nil, wopts, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.CloseWAL()
	if rec.RecoveredEpoch != 0 || rec.RecordsReplayed != 0 {
		t.Fatalf("recovery = %+v, want epoch 0 with nothing logged", rec)
	}
}

func TestRateLimitSheds(t *testing.T) {
	// Expensive bucket: burst covers exactly one whale query
	// (cost = 512/256 = 2), refill glacial. Cheap bucket untouched.
	s, eng := newTestServer(t, engine.Options{}, Config{
		ExpensiveRate: 0.001, ExpensiveBurst: 2,
	})
	whale := fmt.Sprintf(`{"nodes":[%d]}`, tgWhaleBase)
	if w := post(s, "/query", whale); w.Code != http.StatusOK {
		t.Fatalf("first whale query: %d %s", w.Code, w.Body.String())
	}
	w := post(s, "/query", whale)
	wantCode(t, w, http.StatusTooManyRequests, "shed")
	if ra := w.Result().Header.Get("Retry-After"); ra == "" {
		t.Fatal("shed response missing Retry-After")
	}
	// One whale exhausting its class must not starve cheap queries.
	for c := 0; c < 4; c++ {
		if w := post(s, "/query", fmt.Sprintf(`{"nodes":[%d]}`, c*tgSmallSize)); w.Code != http.StatusOK {
			t.Fatalf("cheap query %d after whale shed: %d %s", c, w.Code, w.Body.String())
		}
	}
	if st := eng.Stats().Shed; st != 1 {
		t.Fatalf("Shed = %d, want 1", st)
	}
}

func TestQueueFullSheds(t *testing.T) {
	s, _ := newTestServer(t, engine.Options{Workers: 1}, Config{MaxInflight: 1})
	// Hold the single inflight slot: one query stalls inside the engine on
	// an injected 150ms peel latency.
	faultinject.Set(faultinject.EnginePeel, faultinject.Injection{Latency: 150 * time.Millisecond, Limit: 1})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		post(s, "/query", `{"nodes":[0]}`)
	}()
	// Wait until the slow query occupies the slot, then overflow it.
	deadline := time.Now().Add(2 * time.Second)
	for len(s.inflight) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow query never took the inflight slot")
		}
		time.Sleep(time.Millisecond)
	}
	w := post(s, "/query", fmt.Sprintf(`{"nodes":[%d]}`, tgSmallSize))
	wantCode(t, w, http.StatusTooManyRequests, "shed")
	wg.Wait()
}

// TestOverloadOpenLoop offers four times the capacity, open loop: capacity
// is fixed by construction (2 slots, every peel held 10 ms by injection, no
// cache: 200 queries/s) and an arrival fires every 1.25 ms whether or not
// earlier ones have returned. The overload sampler runs, as it does in
// dmcsd, so the queue-full signal drives the state machine too. Every
// response is a complete 200 that bit-matches the serial reference (one
// graph version, so a stale answer must match it as well), or a 429
// carrying the shed code and Retry-After; both occur, nothing else does,
// everything returns, and the drained server holds no slot. Latency is not
// asserted: on shared cores it does not repeat.
func TestOverloadOpenLoop(t *testing.T) {
	s, _ := newTestServer(t, engine.Options{Workers: 2, CacheSize: -1},
		Config{MaxInflight: 2, SampleInterval: 50 * time.Millisecond})
	g := serverTestGraph(tgSmallComms, tgSmallSize, tgWhaleSize)
	var refs [tgSmallComms]*dmcs.Result
	for c := range refs {
		ref, err := dmcs.Search(g, []graph.Node{graph.Node(c * tgSmallSize)}, dmcs.VariantFPA, optsFPA())
		if err != nil {
			t.Fatal(err)
		}
		refs[c] = ref
	}
	faultinject.Set(faultinject.EnginePeel, faultinject.Injection{Latency: 10 * time.Millisecond})

	var wg sync.WaitGroup
	var admitted, shed atomic.Int64
	tick := time.NewTicker(1250 * time.Microsecond)
	defer tick.Stop()
	for i := 0; i < 320; i++ {
		<-tick.C
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			w := post(s, "/query", fmt.Sprintf(`{"nodes":[%d]}`, c*tgSmallSize))
			switch w.Code {
			case http.StatusOK:
				var resp queryResponse
				if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || resp.TimedOut || !sameResponse(resp, refs[c]) {
					t.Errorf("community %d: 200 is not the serial answer (err %v): %s", c, err, w.Body)
				}
				admitted.Add(1)
			case http.StatusTooManyRequests:
				var eb errorBody
				if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil || eb.Code != "shed" || w.Header().Get("Retry-After") == "" {
					t.Errorf("429 without the shed code and Retry-After: %v %s", w.Header(), w.Body)
				}
				shed.Add(1)
			default:
				t.Errorf("status %d: %s", w.Code, w.Body)
			}
		}(i % tgSmallComms)
	}
	waitOrDeadlock(t, &wg, 30*time.Second, "open-loop arrivals")
	if admitted.Load() == 0 || shed.Load() == 0 {
		t.Fatalf("admitted %d, shed %d: want both above zero", admitted.Load(), shed.Load())
	}
	s.StartDrain()
	wantCode(t, post(s, "/query", `{"nodes":[0]}`), http.StatusServiceUnavailable, "draining")
	if n := len(s.inflight); n != 0 {
		t.Fatalf("%d inflight slots still held after every request returned", n)
	}
}

func TestBudgetRejection(t *testing.T) {
	s, eng := newTestServer(t, engine.Options{}, Config{})
	// Teach the cheap-class estimator that peels take ~1s, then ask for a
	// 5ms budget: the pre-work check must refuse without searching.
	s.ests[classCheap].observe(time.Second)
	before := eng.Stats().Queries
	w := post(s, "/query", `{"nodes":[0],"timeout_ms":5}`)
	wantCode(t, w, http.StatusUnprocessableEntity, "budget")
	st := eng.Stats()
	if st.Queries != before {
		t.Fatal("budget-rejected query still reached the engine")
	}
	if st.Rejected == 0 {
		t.Fatal("budget rejection not counted in Stats.Rejected")
	}
	// A workable budget flows normally.
	if w := post(s, "/query", `{"nodes":[0],"timeout_ms":5000}`); w.Code != http.StatusOK {
		t.Fatalf("generous-budget query: %d %s", w.Code, w.Body.String())
	}
}

func TestDegradedShedExpensive(t *testing.T) {
	s, eng := newTestServer(t, engine.Options{StaleRetention: 8}, Config{})
	whale := fmt.Sprintf(`{"nodes":[%d]}`, tgWhaleBase)
	// Warm the cache with the whale answer at version 0, then mutate a
	// small community. The whale component is untouched, so its answer
	// must stay a FRESH hit — unchanged version, never flagged stale.
	if w := post(s, "/query", whale); w.Code != http.StatusOK {
		t.Fatalf("warming whale query: %d %s", w.Code, w.Body.String())
	}
	if w := post(s, "/apply", "add 0 2\n del 0 3\n"); w.Code != http.StatusOK {
		t.Fatalf("apply: %d %s", w.Code, w.Body.String())
	}

	s.state.Store(int32(StateShedExpensive))
	w := post(s, "/query", whale)
	if w.Code != http.StatusOK {
		t.Fatalf("whale under shed-expensive: %d %s", w.Code, w.Body.String())
	}
	resp := decodeBody[queryResponse](t, w)
	if resp.Stale || resp.Epoch != 0 {
		t.Fatalf("untouched whale answer stale=%v epoch=%d, want fresh at version 0", resp.Stale, resp.Epoch)
	}
	if st := eng.Stats(); st.StaleServed != 0 {
		t.Fatalf("untouched-component hit counted as StaleServed (%d)", st.StaleServed)
	}

	// Now mutate INSIDE the whale (a chord; the ring keeps it connected):
	// its version is superseded and the cached answer becomes stale.
	if w := post(s, "/apply", fmt.Sprintf("del %d %d\n", tgWhaleBase, tgWhaleBase+7)); w.Code != http.StatusOK {
		t.Fatalf("whale apply: %d %s", w.Code, w.Body.String())
	}
	w = post(s, "/query", whale)
	if w.Code != http.StatusOK {
		t.Fatalf("whale under shed-expensive: %d %s", w.Code, w.Body.String())
	}
	resp = decodeBody[queryResponse](t, w)
	if !resp.Stale || resp.Epoch != 0 {
		t.Fatalf("whale answer stale=%v epoch=%d, want stale from version 0", resp.Stale, resp.Epoch)
	}
	if eng.Stats().StaleServed == 0 {
		t.Fatal("stale serve not counted")
	}
	// Same query with no_stale opts out of degraded answers: shed.
	wantCode(t, post(s, "/query", fmt.Sprintf(`{"nodes":[%d],"no_stale":true}`, tgWhaleBase)),
		http.StatusTooManyRequests, "shed")
	// An expensive query with no cached answer at any retained epoch: shed.
	wantCode(t, post(s, "/query", fmt.Sprintf(`{"nodes":[%d]}`, tgWhaleBase+1)),
		http.StatusTooManyRequests, "shed")
	// Cheap queries still peel normally — and fresh.
	w = post(s, "/query", fmt.Sprintf(`{"nodes":[%d]}`, 2*tgSmallSize))
	if w.Code != http.StatusOK {
		t.Fatalf("cheap query under shed-expensive: %d %s", w.Code, w.Body.String())
	}
	if resp := decodeBody[queryResponse](t, w); resp.Stale {
		t.Fatal("cheap query served stale under shed-expensive")
	}
}

func TestDegradedStaleServe(t *testing.T) {
	s, _ := newTestServer(t, engine.Options{StaleRetention: 8}, Config{})
	// Warm two cheap communities, then mutate inside community 3 only:
	// its entry goes stale while community 5's stays a fresh hit.
	cheap := fmt.Sprintf(`{"nodes":[%d]}`, 3*tgSmallSize)
	untouched := fmt.Sprintf(`{"nodes":[%d]}`, 5*tgSmallSize)
	if w := post(s, "/query", cheap); w.Code != http.StatusOK {
		t.Fatalf("warming query: %d %s", w.Code, w.Body.String())
	}
	if w := post(s, "/query", untouched); w.Code != http.StatusOK {
		t.Fatalf("warming query: %d %s", w.Code, w.Body.String())
	}
	// Drop a chord inside community 3 (nodes 48..63; the ring keeps it
	// connected).
	if w := post(s, "/apply", fmt.Sprintf("del %d %d\n", 3*tgSmallSize, 3*tgSmallSize+3)); w.Code != http.StatusOK {
		t.Fatalf("apply: %d %s", w.Code, w.Body.String())
	}

	s.state.Store(int32(StateStaleServe))
	// Cached-at-superseded-version cheap query: stale answer, no peel.
	w := post(s, "/query", cheap)
	if w.Code != http.StatusOK {
		t.Fatalf("cached query under stale-serve: %d %s", w.Code, w.Body.String())
	}
	if resp := decodeBody[queryResponse](t, w); !resp.Stale || resp.Epoch != 0 {
		t.Fatalf("stale-serve answer stale=%v epoch=%d, want stale version 0", resp.Stale, resp.Epoch)
	}
	// The untouched community is served fresh, not stale: its version
	// never moved.
	w = post(s, "/query", untouched)
	if w.Code != http.StatusOK {
		t.Fatalf("untouched query under stale-serve: %d %s", w.Code, w.Body.String())
	}
	if resp := decodeBody[queryResponse](t, w); resp.Stale || resp.Epoch != 0 {
		t.Fatalf("untouched answer stale=%v epoch=%d, want fresh at version 0", resp.Stale, resp.Epoch)
	}
	// Uncached query: shed — stale-serve starts no new peels, cheap or not.
	wantCode(t, post(s, "/query", fmt.Sprintf(`{"nodes":[%d]}`, 4*tgSmallSize)),
		http.StatusTooManyRequests, "shed")

	// Recovery: back to healthy, the shed query peels fine.
	s.state.Store(int32(StateHealthy))
	if w := post(s, "/query", fmt.Sprintf(`{"nodes":[%d]}`, 4*tgSmallSize)); w.Code != http.StatusOK {
		t.Fatalf("query after recovery: %d %s", w.Code, w.Body.String())
	}
}

func TestDrain(t *testing.T) {
	s, _ := newTestServer(t, engine.Options{}, Config{})
	if w := get(s, "/healthz"); w.Code != http.StatusOK {
		t.Fatalf("healthz before drain: %d", w.Code)
	}
	s.StartDrain()
	wantCode(t, post(s, "/query", `{"nodes":[0]}`), http.StatusServiceUnavailable, "draining")
	wantCode(t, post(s, "/apply", "add 0 2\n"), http.StatusServiceUnavailable, "draining")
	if w := get(s, "/healthz"); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain: %d, want 503", w.Code)
	}
	// Stats stays reachable for post-mortem scraping.
	if w := get(s, "/stats"); w.Code != http.StatusOK {
		t.Fatalf("stats during drain: %d", w.Code)
	}
}

func TestStatsEndpoint(t *testing.T) {
	s, _ := newTestServer(t, engine.Options{}, Config{})
	post(s, "/query", `{"nodes":[0]}`)
	post(s, "/query", `{"nodes":[0]}`) // cache hit
	w := get(s, "/stats")
	if w.Code != http.StatusOK {
		t.Fatalf("stats: %d", w.Code)
	}
	resp := decodeBody[statsResponse](t, w)
	if resp.Engine.Queries != 2 || resp.Engine.CacheHits != 1 {
		t.Fatalf("stats queries=%d hits=%d, want 2/1", resp.Engine.Queries, resp.Engine.CacheHits)
	}
	if resp.Server.State != "healthy" || resp.Server.InflightCap == 0 {
		t.Fatalf("server stats %+v", resp.Server)
	}
}

func TestHandlerPanicContained(t *testing.T) {
	s, _ := newTestServer(t, engine.Options{}, Config{})
	faultinject.Set(faultinject.ServerDecode, faultinject.Injection{Panic: "decode exploded", Limit: 1})
	wantCode(t, post(s, "/query", `{"nodes":[0]}`), http.StatusInternalServerError, "panic")
	// The process survived and the next request is clean.
	if w := post(s, "/query", `{"nodes":[0]}`); w.Code != http.StatusOK {
		t.Fatalf("query after contained panic: %d %s", w.Code, w.Body.String())
	}
}

func TestInjectedPeelPanicMapsTo500(t *testing.T) {
	s, _ := newTestServer(t, engine.Options{}, Config{})
	faultinject.Set(faultinject.EnginePeel, faultinject.Injection{Panic: "peel exploded", Limit: 1})
	wantCode(t, post(s, "/query", `{"nodes":[0]}`), http.StatusInternalServerError, "panic")
	if w := post(s, "/query", `{"nodes":[0]}`); w.Code != http.StatusOK {
		t.Fatalf("query after engine panic: %d %s", w.Code, w.Body.String())
	}
}

func TestDroppedResponseAbortsConnection(t *testing.T) {
	s, _ := newTestServer(t, engine.Options{}, Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()
	faultinject.Set(faultinject.ServerRespond, faultinject.Injection{Drop: true, Limit: 1})
	resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(`{"nodes":[0]}`))
	if err == nil {
		// Some transports surface the abort as a read error on the body
		// instead of the POST itself.
		if _, rerr := io.ReadAll(resp.Body); rerr == nil {
			t.Fatal("dropped response reached the client intact")
		}
		resp.Body.Close()
	}
	// Server keeps serving afterwards.
	resp, err = http.Post(ts.URL+"/query", "application/json", strings.NewReader(`{"nodes":[0]}`))
	if err != nil {
		t.Fatalf("request after dropped response: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status after dropped response: %d", resp.StatusCode)
	}
}

func TestQueueTimeoutMapsTo504(t *testing.T) {
	s, _ := newTestServer(t, engine.Options{Workers: 1}, Config{})
	// One slow peel monopolizes the single worker; the next computed query
	// has a budget too small to ever get the slot.
	faultinject.Set(faultinject.EnginePeel, faultinject.Injection{Latency: 300 * time.Millisecond, Limit: 1})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		post(s, "/query", `{"nodes":[0]}`)
	}()
	time.Sleep(50 * time.Millisecond) // let the slow query take the engine worker slot
	w := post(s, "/query", fmt.Sprintf(`{"nodes":[%d],"timeout_ms":30}`, tgSmallSize))
	wantCode(t, w, http.StatusGatewayTimeout, "queue_timeout")
	wg.Wait()
}

func TestSamplerDrivesState(t *testing.T) {
	// Real sampler at 5ms with a microscopic SLO: two computed queries
	// push p99 over it and the published state must escalate.
	s, _ := newTestServer(t, engine.Options{}, Config{
		SampleInterval: 5 * time.Millisecond,
		Overload:       OverloadConfig{SLO: time.Nanosecond},
	})
	post(s, "/query", `{"nodes":[0]}`)
	deadline := time.Now().Add(2 * time.Second)
	for s.State() == StateHealthy {
		if time.Now().After(deadline) {
			t.Fatal("sampler never escalated despite p99 >> SLO")
		}
		time.Sleep(time.Millisecond)
	}
}

// optsFPA mirrors the server's option policy for the FPA default, so
// direct engine calls in tests hit the same cache keys.
func optsFPA() dmcs.Options { return dmcs.Options{LayerPruning: true} }
