package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	core "dmcs/internal/dmcs"
	"dmcs/internal/engine"
	"dmcs/internal/graph"
	"dmcs/internal/server"
	"dmcs/internal/wal"
)

// Benchmark constants. They are part of the benchmark's definition: a
// comparison holds them equal on both sides.
const (
	// churn-open's fixed arrival rates, the issue's nominal ones: about a
	// fifth of two cores at the defining commit (see README.md, "Fixed
	// constants").
	churnQueryRate = 4000 // queries/s: 70 % hot island, 28 % cold island, 2 % hot whale
	churnApplyRate = 50   // /apply batches/s
	whaleEvery     = 50   // every 50th batch toggles an edge inside the whale

	sampleEvery = 64 // 1 in 64 answers is held back for the reference check
)

// limits are the class latency limits of ok_share.
var limits = [numClasses]time.Duration{
	classIsland: time.Millisecond,
	classCold:   time.Millisecond,
	classWhale:  100 * time.Millisecond,
	classApply:  100 * time.Millisecond,
}

// numClients is C: the load-generating goroutines of every workload.
func numClients() int { return min(runtime.NumCPU(), 4) }

// engineOptions and serverConfig are the one configuration every serving
// workload runs: dmcsd's defaults (GOMAXPROCS workers, 1024-entry cache,
// stale retention 8, checkpoint every 1024 applies, 50 ms SLO sampler),
// with the token buckets set far above any rate the benchmark offers so
// admission is paid for but never refuses.
var engineOptions = engine.Options{StaleRetention: 8, CheckpointEvery: 1024}

// engineCache is the engine's default result-cache capacity, which the
// workloads are sized against.
const engineCache = 1024

func serverConfig() server.Config {
	return server.Config{
		CheapRate: 1e9, CheapBurst: 1e9,
		ExpensiveRate: 1e9, ExpensiveBurst: 1e9,
		StaleMaxBehind: 8,
		Overload:       server.OverloadConfig{SLO: 50 * time.Millisecond},
	}
}

// queryOptions is the server's option policy for a /query of variant v.
func queryOptions(v core.Variant) core.Options {
	return core.Options{LayerPruning: v == core.VariantFPA}
}

// servingEnv is one engine behind one server.
type servingEnv struct {
	fx     *servingFixture
	eng    *engine.Engine
	srv    *server.Server
	dir    string // WAL directory of a durable env
	closed bool
}

func walOptions(dir string) wal.Options { return wal.Options{Dir: dir, Policy: wal.SyncInterval} }

// openServing builds the engine (on a fresh WAL directory when durable)
// and the server around it.
func openServing(fx *servingFixture, durable bool) (*servingEnv, error) {
	env := &servingEnv{fx: fx}
	if durable {
		dir, err := scratchDir("wal")
		if err != nil {
			return nil, err
		}
		env.dir = dir
		env.eng, _, err = engine.OpenDurable(fx.g, walOptions(dir), engineOptions)
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
	} else {
		env.eng = engine.New(fx.g, engineOptions)
	}
	env.srv = server.New(env.eng, serverConfig())
	return env, nil
}

// close stops the server's sampler and removes the WAL directory. It may
// be called twice.
func (e *servingEnv) close() {
	if e.closed {
		return
	}
	e.closed = true
	e.srv.Close()
	if e.dir != "" {
		_ = e.eng.CloseWAL()
		os.RemoveAll(e.dir)
	}
}

// scratchDir makes a fresh directory under ./.bench_build, the one place
// in the checkout the benchmark writes to.
func scratchDir(kind string) (string, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(".bench_build", kind+"-")
}

// outcome counts operations across a run.
type outcome struct {
	attempted  int
	failed     int // non-200, refused, stale, timed out, or failing a check
	within     int // correct, complete, and inside the class limit
	checkFails int // 200 answers that failed a correctness check
}

func (o *outcome) add(p outcome) {
	o.attempted += p.attempted
	o.failed += p.failed
	o.within += p.within
	o.checkFails += p.checkFails
}

func (o outcome) okShare() float64 {
	if o.attempted == 0 {
		return 0
	}
	return float64(o.within) / float64(o.attempted)
}

// sampled is an answer held back for the serial-reference check.
type sampled struct {
	spec      *reqSpec
	community []graph.Node
	score     float64
}

// client is one load-generating goroutine's state.
type client struct {
	id       int
	query    *caller
	apply    *caller
	ans      answer
	lat      [numClasses][]int32 // ns per OK operation
	grp      [numClasses][]int32 // its group within the class (see floors.go)
	late     []int32             // open loop: dispatch start minus due time, ns
	out      outcome
	holdBack bool // read-only workloads: keep 1 answer in sampleEvery for the reference check
	held     []sampled
	shed     int
	stale    int
	http5xx  int
	// trace, when set, pairs every operation with replays one layer down
	// (the traced passes).
	trace *tracer
}

func newClients(h http.Handler, n int) []*client {
	cs := make([]*client, n)
	for i := range cs {
		cs[i] = &client{id: i, query: newCaller(h, "/query"), apply: newCaller(h, "/apply")}
		cs[i].lat[classIsland] = make([]int32, 0, 1<<20)
		cs[i].grp[classIsland] = make([]int32, 0, 1<<20)
	}
	return cs
}

func clampNS(d time.Duration) int32 { return int32(min(d, math.MaxInt32)) }

// doQuery issues one query. due is the zero time in a closed loop; in an
// open loop latency runs from it.
func (c *client) doQuery(r request, due time.Time) time.Time {
	spec := r.spec
	start := time.Now()
	from := start
	if !due.IsZero() {
		from = due
		c.late = append(c.late, clampNS(start.Sub(due)))
	}
	status, body := c.query.do(spec.body)
	end := time.Now()
	lat := end.Sub(from)
	c.out.attempted++
	switch {
	case status == http.StatusTooManyRequests:
		c.shed++
	case status >= 500:
		c.http5xx++
	}
	ok := false
	if status == http.StatusOK {
		ok = parseAnswer(body, &c.ans) && c.ans.size == len(c.ans.community) && contains(c.ans.community, spec.nodes[0])
		if !ok {
			c.out.checkFails++
		} else if c.ans.stale || c.ans.timedOut {
			c.stale++
			ok = false
		}
	}
	if !ok {
		c.out.failed++
	} else {
		c.lat[r.class] = append(c.lat[r.class], clampNS(lat))
		c.grp[r.class] = append(c.grp[r.class], r.group)
		if lat <= limits[r.class] {
			c.out.within++
		}
		if c.holdBack && c.out.attempted%sampleEvery == 0 {
			c.held = append(c.held, sampled{spec, append([]graph.Node(nil), c.ans.community...), c.ans.score})
		}
	}
	if c.trace != nil {
		c.trace.afterQuery(c, spec, end.Sub(start))
	}
	return end
}

func (c *client) doApply(b applyBatch, due time.Time) {
	var row traceRow
	if c.trace != nil {
		row = c.trace.beforeApply(b)
	}
	body := b.body()
	start := time.Now()
	from := start
	if !due.IsZero() {
		from = due
		c.late = append(c.late, clampNS(start.Sub(due)))
	}
	status, resp := c.apply.do(body)
	end := time.Now()
	lat := end.Sub(from)
	if c.trace != nil {
		row.req = end.Sub(start)
		c.trace.rows[c.id] = append(c.trace.rows[c.id], row)
		if ep, ok := c.trace.primary.DurableEpoch(); ok {
			c.trace.durable[ep] = true
		}
	}
	c.out.attempted++
	if status >= 500 {
		c.http5xx++
	}
	if status != http.StatusOK || !bytes.Contains(resp, []byte(`"epoch":`)) {
		c.out.failed++
		return
	}
	c.lat[classApply] = append(c.lat[classApply], clampNS(lat))
	c.grp[classApply] = append(c.grp[classApply], 0)
	if lat <= limits[classApply] {
		c.out.within++
	}
}

// plan picks request i of client c.
type plan func(c, i int) request

// runClosed drives a closed loop: every client keeps exactly one request
// in flight. It ends after d, or after perClient requests each when
// perClient > 0. It returns the wall time of the phase.
func runClosed(clients []*client, next plan, d time.Duration, perClient int) time.Duration {
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for i := 0; perClient == 0 || i < perClient; i++ {
				if now := c.doQuery(next(c.id, i), time.Time{}); perClient == 0 && !now.Before(deadline) {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

// hotWhaleShare is the share of hot-read's requests that ask for a whale
// key: 3 in 100, what 16 whale keys among 528 uniformly drawn ones were in
// the issue's sizing.
const hotWhaleShare = 0.03

// hotPlan cycles a seeded draw from the warmed key set, each client from
// its own offset: an island key or, 3 times in 100, the next whale key in
// turn (so every whale key gets the same number of samples).
func hotPlan(fx *servingFixture, seed int64, clients int) plan {
	rng := rand.New(rand.NewSource(seed ^ 0x686f74))
	islands, whales := fx.hotIslands(), fx.hotWhales()
	order := make([]request, 1<<16)
	k := 0
	for i := range order {
		if rng.Float64() < hotWhaleShare {
			k = (k + 1) % len(whales)
			order[i] = request{&fx.queries[whales[k]], classWhale, int32(k)}
		} else {
			order[i] = request{&fx.queries[islands[rng.Intn(len(islands))]], classIsland, 0}
		}
	}
	return func(c, i int) request {
		return order[(c*len(order)/clients+i)%len(order)]
	}
}

// warmPlan touches every key of keys in turn.
func warmPlan(fx *servingFixture, keys []int32) plan {
	return func(_, i int) request {
		spec := &fx.queries[keys[i%len(keys)]]
		return request{spec, spec.class, 0}
	}
}

// coldEvery is cold-peel's mix: one request in 20 is a whale query.
const coldEvery = 20

// coldWhales is the whale keys cold-peel repeats, coldWhaleKeys per
// client.
func coldWhales(fx *servingFixture, clients int) []int32 {
	whales := fx.hotWhales()
	return whales[:min(clients*fx.sz.coldWhaleKeys, len(whales))]
}

// coldPlan makes every request a miss: 19 island queries, then one whale
// query. The clients split the island nodes and the whale keys, and each
// cycles its own part: all of its island nodes in id order (16x the
// cache between them, so LRU never sees a repeat in time) and its whale
// keys in turn, so that a whale key comes round a hundred-odd times in a
// phase — the floor statistic needs the repeats — but only after its
// client alone has put 20 x coldWhaleKeys other keys through the cache.
// Nothing is shared, because whatever one client can find in the cache
// after another put it there makes the loop bistable on a machine that
// holds one client back now and then: the one that starts to hit runs
// faster for it, stays behind the other's insertions, and keeps hitting
// (whale keys shared or cycled in less than a cache: ten times faster;
// one island walk for all: twice).
func coldPlan(fx *servingFixture, clients int) plan {
	stretch, whales := fx.islandNodes()/clients, coldWhales(fx, clients)
	per := max(len(whales)/clients, 1)
	return func(c, i int) request {
		if i%coldEvery == coldEvery-1 {
			k := (c*per + (i/coldEvery)%per) % len(whales)
			return request{&fx.queries[whales[k]], classWhale, int32(k)}
		}
		return request{&fx.queries[c*stretch+(i-i/coldEvery)%stretch], classIsland, 0}
	}
}

// coldWarm is cold-peel's warm-up, from the middle of the client's own
// stretch of the island walk, which the timed phase reaches only after
// the cache has turned over: first a whole cycle of the timed plan, which
// peels every whale key once (arenas grown, the whale's sub-CSR built),
// then island queries alone until the cache holds none of the whale
// answers. The timed phase starts cold.
func coldWarm(fx *servingFixture, next plan, clients int) (plan, int) {
	stretch := fx.islandNodes() / clients
	cycle := coldEvery * max(len(coldWhales(fx, clients))/clients, 1)
	return func(c, i int) request {
		if i < cycle {
			return next(c, i+stretch/2)
		}
		return request{&fx.queries[c*stretch+(stretch/2+i)%stretch], classIsland, 0}
	}, cycle + engineCache
}

// warm runs the plan's first perClient requests per client without
// keeping their samples: caches fill and arenas grow.
func warm(h http.Handler, next plan, perClient int) {
	runClosed(newClients(h, numClients()), next, 0, perClient)
}

// churnGen is churn-open's generator: a query schedule and an apply
// schedule at fixed rates. Query k is due at t0 + k/qRate; the clients all
// wait for the next due time and whichever is running then claims the
// query and dispatches it, so a client that the OS holds off the CPU for
// a few milliseconds does not hold a request with it, and at most C
// queries are in flight. The writer walks the apply schedule alone.
// Every latency runs from the due time.
type churnGen struct {
	fx *servingFixture
	t0 time.Time

	reqs  []request // query k is reqs[k % len(reqs)]
	nextQ atomic.Int64

	// the writer's own
	nextA    int
	chordsIn []bool // per island: are the toggled chords currently present
	whaleIn  bool
}

// churnWhaleKeys is the size of churn-open's warmed whale key set.
const churnWhaleKeys = 16

// churnKeys is what churn-open warms: every hot island key and the first
// churnWhaleKeys whale keys.
func churnKeys(fx *servingFixture) (islands, whales []int32) {
	whales = fx.hotWhales()
	return fx.hotIslands(), whales[:min(churnWhaleKeys, len(whales))]
}

// newChurnGen draws the query sequence from the seed: 70 % uniformly from
// the warmed island keys, 28 % walking all island nodes in order (cold:
// the walk is 16x the cache), 2 % uniformly from the 16 warmed whale keys.
func newChurnGen(fx *servingFixture, seed int64) *churnGen {
	g := &churnGen{fx: fx, chordsIn: make([]bool, fx.sz.islands)}
	rng := rand.New(rand.NewSource(seed ^ 0x636875726e))
	islands, whales := churnKeys(fx)
	cold := 0
	g.reqs = make([]request, 1<<17)
	for i := range g.reqs {
		switch r := rng.Intn(100); {
		case r < 2:
			k := rng.Intn(len(whales))
			g.reqs[i] = request{&fx.queries[whales[k]], classWhale, int32(k)}
		case r < 30:
			cold = (cold + 1) % fx.islandNodes()
			g.reqs[i] = request{&fx.queries[cold], classCold, 0}
		default:
			g.reqs[i] = request{&fx.queries[islands[rng.Intn(len(islands))]], classIsland, 0}
		}
	}
	return g
}

// dueOf is when item i of a schedule running at rate items/s is due.
func (g *churnGen) dueOf(i, rate int) time.Time {
	return g.t0.Add(time.Duration(float64(i) / float64(rate) * float64(time.Second)))
}

// nextBatch toggles 8 chords in island k mod islands, or on every 50th
// batch the whale edge; tracking presence keeps every batch effective.
func (g *churnGen) nextBatch() applyBatch {
	k := g.nextA
	g.nextA++
	if k%whaleEvery == whaleEvery-1 {
		g.whaleIn = !g.whaleIn
		return applyBatch{add: g.whaleIn, edges: [][2]graph.Node{g.fx.whaleToggle}}
	}
	island := k % g.fx.sz.islands
	g.chordsIn[island] = !g.chordsIn[island]
	return applyBatch{add: g.chordsIn[island], edges: g.fx.chordOps(island)}
}

// waitUntil returns once due has passed. Sleeps shorter than about a
// millisecond overshoot by up to one on Linux, so the last stretch yields
// in a loop instead.
func waitUntil(due time.Time) {
	for {
		d := time.Until(due)
		switch {
		case d <= 0:
			return
		case d > 2*time.Millisecond:
			time.Sleep(d - 1500*time.Microsecond)
		default:
			runtime.Gosched()
		}
	}
}

// runOpen drives the open loop for d: the clients dispatch the query
// schedule, and writer (a client of its own, so reads never queue behind
// a write in the generator) dispatches the apply schedule.
func runOpen(clients []*client, writer *client, g *churnGen, d time.Duration) time.Duration {
	g.t0 = time.Now()
	end := g.t0.Add(d)
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for {
				k := g.nextQ.Load()
				due := g.dueOf(int(k), churnQueryRate)
				if !due.Before(end) {
					return
				}
				waitUntil(due)
				if g.nextQ.CompareAndSwap(k, k+1) {
					c.doQuery(g.reqs[int(k)%len(g.reqs)], due)
				}
			}
		}(c)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			due := g.dueOf(g.nextA, churnApplyRate)
			if !due.Before(end) {
				return
			}
			b := g.nextBatch()
			waitUntil(due)
			writer.doApply(b, due)
		}
	}()
	wg.Wait()
	return time.Since(g.t0)
}

// verifyHeld checks every held-back answer of a read-only workload
// against a serial dmcs.SearchCSR on the fixture's own CSR: same
// community, bit-equal score. It returns the number of mismatches.
func verifyHeld(fx *servingFixture, clients []*client) (bad int) {
	refs := map[*reqSpec]*core.Result{} // hot-read holds back the same 528 keys many times over
	for _, c := range clients {
		for _, h := range c.held {
			ref := refs[h.spec]
			if ref == nil {
				var err error
				ref, err = core.SearchCSR(fx.csr, h.spec.nodes, core.VariantFPA, queryOptions(core.VariantFPA))
				if err != nil {
					ref = &core.Result{}
				}
				refs[h.spec] = ref
			}
			if !slices.Equal(ref.Community, h.community) || math.Float64bits(ref.Score) != math.Float64bits(h.score) {
				bad++
			}
		}
		c.held = nil
	}
	return bad
}

// verifyRestart is churn-open's durability check: close the WAL, recover
// the directory into a second engine, and require its state image to be
// byte-equal to the live engine's — every acknowledged write survived.
func verifyRestart(env *servingEnv) error {
	live := env.eng.EncodeState(nil)
	if err := env.eng.CloseWAL(); err != nil {
		return fmt.Errorf("close WAL: %w", err)
	}
	again, _, err := engine.OpenDurable(nil, walOptions(env.dir), engineOptions)
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	defer again.CloseWAL()
	if !bytes.Equal(live, again.EncodeState(nil)) {
		return fmt.Errorf("recovered state differs from the live engine at epoch %d", env.eng.Epoch())
	}
	return nil
}

// liveHeapMiB is HeapInuse after two forced collections: the first only
// moves sync.Pool contents (the peel arenas) to the pools' victim caches,
// and scratch that is or is not there at that moment moves a small heap's
// figure by a quarter.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}

// servingSetup is one set-up of a serving workload: fixture, engine (and
// WAL), server, and the warm-up its timed phase starts from.
type servingSetup struct {
	workload string
	env      *servingEnv
	clients  []*client
	next     plan         // closed-loop workloads
	gen      *churnGen    // churn-open
	before   engine.Stats // the engine's counters when the last pass began
}

func setupServing(workload string, sz scale, seed int64) (*servingSetup, error) {
	fx, err := newServingFixture(sz, seed)
	if err != nil {
		return nil, err
	}
	env, err := openServing(fx, workload == "churn-open")
	if err != nil {
		return nil, err
	}
	s := &servingSetup{workload: workload, env: env}
	c := numClients()
	switch workload {
	case "hot-read":
		s.next = hotPlan(fx, seed, c)
		// first touch computes every key; later ones settle cache and pools
		warm(env.srv, warmPlan(fx, fx.hotKeys), 4*len(fx.hotKeys))
	case "cold-peel":
		s.next = coldPlan(fx, c)
		w, n := coldWarm(fx, s.next, c)
		warm(env.srv, w, n)
	case "churn-open":
		s.gen = newChurnGen(fx, seed)
		s.settle()
		s.settle()
	default:
		return nil, fmt.Errorf("not a serving workload: %q", workload)
	}
	if s.gen != nil { // clients[0] is the writer
		s.clients = newClients(env.srv, c+1)
		return s, nil
	}
	s.clients = newClients(env.srv, c)
	for _, cl := range s.clients {
		cl.holdBack = true
	}
	return s, nil
}

// settle answers every key churn-open keeps warm once, outside any timed
// phase: its warm-up, and again before the live heap is read. What the
// engine builds lazily exists then whatever the phase's last few requests
// happened to be — the phase's last batch toggles the whale's edge, and
// whether one of the 80 whale queries a second still came after it (and
// had the whale's 1.5 MB sub-CSR rebuilt) moved the heap by a tenth.
func (s *servingSetup) settle() {
	islands, whales := churnKeys(s.env.fx)
	keys := append(append([]int32(nil), islands...), whales...)
	warm(s.env.srv, warmPlan(s.env.fx, keys), len(keys))
}

// costly is the class costly_p50_ms reports on this workload.
func (s *servingSetup) costly() class {
	if s.gen != nil {
		return classApply
	}
	return classWhale
}

// run executes the workload's timed phase (for d, or a fixed request
// count when perClient > 0) and returns the wall time.
func (s *servingSetup) run(d time.Duration, perClient int) time.Duration {
	s.before = s.env.eng.Stats()
	if s.gen != nil {
		return runOpen(s.clients[1:], s.clients[0], s.gen, d)
	}
	return runClosed(s.clients, s.next, d, perClient)
}

// finish runs the workload's end-of-run checks and counts what they
// find: the answers held back against the serial reference and the cache
// doing what the workload is named for (read-only workloads), the restart
// check (churn-open).
func (s *servingSetup) finish(o *outcome) {
	if s.gen != nil {
		if err := verifyRestart(s.env); err != nil {
			o.checkFails++
			fmt.Fprintln(os.Stderr, "dmcsbench: churn-open:", err)
		}
		return
	}
	if bad := verifyHeld(s.env.fx, s.clients); bad > 0 {
		o.checkFails += bad
		o.failed += bad
		fmt.Fprintf(os.Stderr, "dmcsbench: %d sampled answers differ from the serial reference\n", bad)
	}
	st := statsDelta(s.before, s.env.eng.Stats())
	hits := share(st.CacheHits, st.Queries)
	cold := s.workload == "cold-peel" && s.env.fx.islandNodes() >= 4*engineCache // the smoke test's fixture fits the cache
	if (s.workload == "hot-read" && hits < 0.999) || (cold && hits > 0.001) {
		o.checkFails++
		fmt.Fprintf(os.Stderr, "dmcsbench: %s: %.4f of %d queries were cache hits; the workload is not what it is named for\n", s.workload, hits, st.Queries)
	}
}

// searchDirect is Engine.Search with the server's option policy — the
// call one layer below a /query.
func searchDirect(eng *engine.Engine, q []graph.Node) (*core.Result, error) {
	return eng.Search(context.Background(), engine.Query{
		Nodes: q, Variant: core.VariantFPA, Opts: queryOptions(core.VariantFPA),
	})
}
