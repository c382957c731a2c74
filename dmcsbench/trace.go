package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	api "dmcs"
	core "dmcs/internal/dmcs"
	"dmcs/internal/engine"
	"dmcs/internal/graph"
	"dmcs/internal/harness"
	"dmcs/internal/metrics"
	"dmcs/internal/modularity"
	"dmcs/internal/wal"
)

// The traced run. Tracing is done entirely from the benchmark's side: a
// span is the wall time of one call into a layer's exported entry point,
// and a layer's children are found by replaying the same input one layer
// down right after the request (ServeHTTP → Engine.Search on an engine in
// the same cache state → dmcs.SearchSub on the same sub-CSR → the graph
// kernels the peel calls). Self time is a span minus its child. Every
// pass has a fixed request count, so the table does not depend on how
// fast the machine is. Spans inside the program are ROADMAP item 1, not
// this benchmark.

// traceRow is one traced operation: its end-to-end span and the spans of
// the paired replays below it.
type traceRow struct {
	class class
	req   time.Duration // ServeHTTP through the harness's dispatch
	eng   time.Duration // Engine.Search / Engine.Apply, same input
	dmcs  time.Duration // dmcs.SearchSub, same input (misses only)
	graph time.Duration // kernels under the peel; MergeCSR + UpdateComponents under an apply
	wal   time.Duration // wal.Log.Append of the same record (applies only)

	merge, update time.Duration // the two halves of an apply's graph span
}

type traceMode int

const (
	traceHits    traceMode = iota // pair Engine.Search on the same engine: also a hit
	traceMisses                   // pair Engine.Search on the twin, then SearchSub, then kernels
	traceApplies                  // pair Engine.Apply on the twin and its children; queries unpaired
)

// tracer pairs replays with the operations of one traced pass. Each
// client (churn-open has one more than C: its writer) appends to its own
// row slice and owns its own arenas.
type tracer struct {
	mode    traceMode
	fx      *servingFixture
	pair    *engine.Engine   // where the paired Search / Apply goes
	primary *engine.Engine   // the engine behind the server under test
	snap    *engine.Snapshot // read-only passes: where sub-CSRs come from
	log     *wal.Log         // scratch log for the paired append
	logSeq  uint64
	rows    [][]traceRow
	arenas  []*core.Arena
	garena  []*graph.Arena

	applied    []engine.ApplyStats
	durable    map[uint64]bool // distinct durable epochs seen after applies
	mismatches atomic.Int64    // answers whose score differs from the definition
}

func newTracer(mode traceMode, fx *servingFixture, pair *engine.Engine, clients int) *tracer {
	t := &tracer{mode: mode, fx: fx, pair: pair, rows: make([][]traceRow, clients+1), durable: map[uint64]bool{}}
	for i := 0; i <= clients; i++ {
		t.arenas = append(t.arenas, core.NewArena())
		t.garena = append(t.garena, graph.NewArena())
	}
	return t
}

func (t *tracer) all(cl class) []traceRow {
	var out []traceRow
	for _, rows := range t.rows {
		for _, r := range rows {
			if r.class == cl {
				out = append(out, r)
			}
		}
	}
	return out
}

func (t *tracer) spans() int {
	n := 0
	for _, rows := range t.rows {
		for _, r := range rows {
			for _, d := range []time.Duration{r.req, r.eng, r.dmcs, r.graph, r.wal} {
				if d > 0 {
					n++
				}
			}
		}
	}
	return n
}

// afterQuery replays the query one layer down at a time.
func (t *tracer) afterQuery(c *client, spec *reqSpec, req time.Duration) {
	if t.mode == traceApplies {
		return
	}
	row := traceRow{class: spec.class, req: req}
	t0 := time.Now()
	res, err := searchDirect(t.pair, spec.nodes)
	row.eng = time.Since(t0)
	if err == nil && t.mode == traceMisses {
		id, _ := t.snap.ComponentID(spec.nodes)
		sub, members := t.snap.SubCSR(id), t.snap.ComponentMembers(id)
		t0 = time.Now()
		res, err = core.SearchSub(t.arenas[c.id], sub, spec.nodes, members, core.VariantFPA, queryOptions(core.VariantFPA))
		row.dmcs = time.Since(t0)
		if err == nil {
			row.graph = replayKernels(t.garena[c.id], sub, spec.nodes[0], res.Iterations)
		}
	}
	if err != nil || math.Abs(modularity.DensityCSR(t.fx.csr, res.Community)-res.Score) > 1e-9 {
		t.mismatches.Add(1)
	}
	t.rows[c.id] = append(t.rows[c.id], row)
}

// replayKernels times the graph calls a pruned FPA peel of sub makes for
// query node q: building the alive view, the BFS layering, and
// `removals` node removals, outermost layer first (a second view is built
// when the first is exhausted, as the peel's second phase does). Putting
// the nodes in that order is the peel's work, not graph's, and is
// untimed.
func replayKernels(ga *graph.Arena, sub *graph.SubCSR, q graph.Node, removals int) time.Duration {
	k := sub.NumNodes()
	lq, _ := sub.LocalOf(q)
	t0 := time.Now()
	v := ga.ViewAll(0, sub)
	dist := v.MultiSourceBFSInto([]graph.Node{lq}, ga.Dist(0, k), ga.Queue(k))
	total := time.Since(t0)

	order := ga.Nodes(0, k)[:0]
	for u := 0; u < k; u++ {
		if graph.Node(u) != lq {
			order = append(order, graph.Node(u))
		}
	}
	sort.Slice(order, func(i, j int) bool { return dist[order[i]] > dist[order[j]] })

	for removals > 0 && len(order) > 0 {
		n := min(removals, len(order))
		t0 = time.Now()
		for _, u := range order[:n] {
			v.Remove(u)
		}
		if removals -= n; removals > 0 {
			v = ga.ViewAll(0, sub)
		}
		total += time.Since(t0)
	}
	return total
}

// beforeApply replays Apply's children on the paired engine's pre-batch
// snapshot — MergeCSR, UpdateComponents, and a WAL append of the same
// record to a scratch log — and then runs the batch through the paired
// engine itself.
func (t *tracer) beforeApply(b applyBatch) traceRow {
	row := traceRow{class: classApply}
	snap := t.pair.Snapshot()
	ops := b.deltas()
	compID := make([]int32, snap.CSR().NumNodes())
	for id := 0; id < snap.NumComponents(); id++ {
		for _, u := range snap.ComponentMembers(int32(id)) {
			compID[u] = int32(id)
		}
	}
	touched, _ := snap.ComponentID(b.edges[0][:1])

	t0 := time.Now()
	csr, info := graph.MergeCSR(snap.CSR(), ops)
	row.merge = time.Since(t0)
	t0 = time.Now()
	graph.UpdateComponents(csr, compID, snap.NumComponents(), info)
	row.update = time.Since(t0)
	row.graph = row.merge + row.update

	t.logSeq++
	rec := wal.Record{Epoch: t.logSeq, Ops: ops,
		Stamps: []wal.ComponentStamp{{Key: snap.ComponentKey(touched), Ver: t.logSeq}}}
	t0 = time.Now()
	err := t.log.Append(rec)
	row.wal = time.Since(t0)
	if err != nil {
		panic(fmt.Sprintf("dmcsbench: scratch WAL append: %v", err))
	}

	var eb engine.Batch
	for _, e := range b.edges {
		if b.add {
			eb.AddEdge(e[0], e[1])
		} else {
			eb.RemoveEdge(e[0], e[1])
		}
	}
	t0 = time.Now()
	st, err := t.pair.Apply(eb)
	row.eng = time.Since(t0)
	if err != nil {
		panic(fmt.Sprintf("dmcsbench: paired Apply: %v", err))
	}
	t.applied = append(t.applied, st)
	return row
}

// passCounters is what one traced pass saw at the server and engine
// boundaries.
type passCounters struct {
	requests, shed, stale, http5xx int
	stats                          engine.Stats // delta over the pass
}

func statsDelta(a, b engine.Stats) engine.Stats {
	return engine.Stats{
		Queries: b.Queries - a.Queries, CacheHits: b.CacheHits - a.CacheHits, Collapsed: b.Collapsed - a.Collapsed,
		Computed: b.Computed - a.Computed, TimedOut: b.TimedOut - a.TimedOut, Errors: b.Errors - a.Errors,
		Invalidated: b.Invalidated - a.Invalidated, Retained: b.Retained - a.Retained,
	}
}

func countersOf(clients []*client, delta engine.Stats) passCounters {
	p := passCounters{stats: delta}
	for _, c := range clients {
		p.requests += c.out.attempted
		p.shed += c.shed
		p.stale += c.stale
		p.http5xx += c.http5xx
	}
	return p
}

func share(n, of uint64) float64 {
	if of == 0 {
		return 0
	}
	return float64(n) / float64(of)
}

// traceResult is the outcome of the traced run.
type traceResult struct {
	metrics     metricSet
	out         outcome
	budget      []BudgetRow
	predictions []Prediction
}

// traceAll runs every traced pass and every layer probe. own names the
// workload whose pass supplies the traffic counters (shed, stale, hit
// ratio, …) and the tracing overhead, measured against ownUntracedUS, the
// median latency of the same operation in an untraced run.
func traceAll(sz scale, seed int64, own string, ownUntracedUS float64) (*traceResult, error) {
	m := metricSet{}
	res := &traceResult{metrics: m}
	nClients := numClients()
	dispatch := dispatchOverhead(200, 1000)
	m.timing("bench.dispatch_overhead_ns", dispatch)
	dispatchNS := time.Duration(median(dispatch))
	passes := map[string]passCounters{}
	spans := 0

	// hot-read: every request a hit, paired with a direct hit.
	hotS, err := setupServing("hot-read", sz, seed)
	if err != nil {
		return nil, err
	}
	defer hotS.env.close()
	hotT := newTracer(traceHits, hotS.env.fx, hotS.env.eng, nClients)
	before := hotS.env.eng.Stats()
	hotS.attach(hotT)
	hotS.run(0, sz.tracedHot)
	hotS.attach(nil)
	passes["hot-read"] = countersOf(hotS.clients, statsDelta(before, hotS.env.eng.Stats()))
	hot := hotT.all(classIsland)
	hot = append(hot, hotT.all(classWhale)...)
	probeServer(m, hotS, hot, dispatchNS)
	res.out.add(finishPass(hotS))
	hotS.env.close()
	spans += hotT.spans()

	// cold-peel: every request a miss; the twin engine sees the same
	// stream, so its paired Search is a miss doing the same work.
	coldS, err := setupServing("cold-peel", sz, seed)
	if err != nil {
		return nil, err
	}
	defer coldS.env.close()
	coldT := newTracer(traceMisses, coldS.env.fx, engine.New(coldS.env.fx.g, engineOptions), nClients)
	coldT.snap = coldS.env.eng.Snapshot()
	before = coldS.env.eng.Stats()
	coldS.attach(coldT)
	coldS.run(0, sz.tracedCold)
	coldS.attach(nil)
	passes["cold-peel"] = countersOf(coldS.clients, statsDelta(before, coldS.env.eng.Stats()))
	island, whale := coldT.all(classIsland), coldT.all(classWhale)
	m.timing("engine.search_miss_us", durs(island, time.Microsecond, func(r traceRow) time.Duration { return r.eng }))
	m.timing("engine.self_miss_us", durs(island, time.Microsecond, func(r traceRow) time.Duration { return r.eng - r.dmcs }))
	res.out.add(finishPass(coldS))
	coldS.env.close()
	spans += coldT.spans()

	// churn-open: first untraced for the generator's lateness and the
	// overhead baseline, then traced with every apply paired on a twin
	// durable engine.
	churnBase, err := setupServing("churn-open", sz, seed)
	if err != nil {
		return nil, err
	}
	defer churnBase.env.close()
	churnBase.run(sz.tracedChurn, 0)
	m.pct("bench.gen_lateness_p99_us", gatherLate(churnBase.clients), 0.99)
	res.out.add(finishPass(churnBase))
	churnBase.env.close()

	churnS, err := setupServing("churn-open", sz, seed)
	if err != nil {
		return nil, err
	}
	defer churnS.env.close()
	twin, err := openServing(churnS.env.fx, true)
	if err != nil {
		return nil, err
	}
	defer twin.close()
	logDir, err := scratchDir("log")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(logDir)
	scratch, _, err := wal.Open(walOptions(logDir))
	if err != nil {
		return nil, err
	}
	churnT := newTracer(traceApplies, churnS.env.fx, twin.eng, nClients)
	churnT.log, churnT.primary = scratch, churnS.env.eng
	before = churnS.env.eng.Stats()
	churnS.attach(churnT)
	churnS.run(sz.tracedChurn, 0)
	churnS.attach(nil)
	churnDelta := statsDelta(before, churnS.env.eng.Stats())
	passes["churn-open"] = countersOf(churnS.clients, churnDelta)
	applies := churnT.all(classApply)
	probeApplies(m, churnT, applies)
	probeWAL(m, scratch, logDir, applies, twin, churnS.gen)
	res.out.add(finishPass(churnS))
	churnS.env.close()
	twin.close()
	spans += churnT.spans()

	// paper-lfr: the root API call, then the same search on a prebuilt
	// CSR, then the pack alone.
	paper, err := setupPaper(sz, sz.querySets, sz.querySets, seed)
	if err != nil {
		return nil, err
	}
	pp := tracePaper(m, paper)
	passes["paper-lfr"] = passCounters{requests: pp.out.attempted}
	res.out.add(pp.out)
	spans += pp.spans

	probeKernels(m, coldS.env.fx, &res.out)
	probeBaselines(m, paper)
	mism := hotT.mismatches.Load() + coldT.mismatches.Load() + int64(pp.mismatches)
	m.value("modularity.score_mismatches", float64(mism), spans)
	res.out.checkFails += int(mism)

	// The traffic counters and the tracing overhead are the named
	// workload's own.
	p := passes[own]
	queriesUS := func(s *servingSetup) float64 { return median(plainQueries(s.clients)) }
	var ownTracedUS float64
	switch own {
	case "hot-read":
		ownTracedUS = median(durs(hot, time.Microsecond, func(r traceRow) time.Duration { return r.req }))
	case "cold-peel":
		ownTracedUS = queriesUS(coldS)
	case "churn-open":
		ownTracedUS = queriesUS(churnS)
	case "paper-lfr":
		ownTracedUS = pp.callMedianUS
	}
	reqs := uint64(p.requests)
	m.value("server.shed_share", share(uint64(p.shed), reqs), p.requests)
	m.value("server.stale_share", share(uint64(p.stale), reqs), p.requests)
	m.value("server.http_5xx", float64(p.http5xx), p.requests)
	m.value("engine.hit_ratio", share(p.stats.CacheHits, p.stats.Queries), int(p.stats.Queries))
	m.value("engine.computed_per_query", share(p.stats.Computed, p.stats.Queries), int(p.stats.Queries))
	m.value("engine.collapsed_share", share(p.stats.Collapsed, p.stats.Queries), int(p.stats.Queries))
	m.value("engine.timed_out", float64(p.stats.TimedOut), int(p.stats.Queries))
	m.value("engine.errors", float64(p.stats.Errors), int(p.stats.Queries))
	overhead := 0.0
	if ownUntracedUS > 0 {
		overhead = (ownTracedUS - ownUntracedUS) / ownUntracedUS * 100
	}
	m.value("bench.trace_overhead_pct", overhead, p.requests)
	m.value("bench.samples", float64(spans), spans)

	hitRatioHot := share(passes["hot-read"].stats.CacheHits, passes["hot-read"].stats.Queries)
	res.budget = []BudgetRow{
		budgetRow("hot-read query", hot, dispatchNS),
		budgetRow("cold-peel island miss", island, dispatchNS),
		budgetRow("cold-peel whale", whale, dispatchNS),
		budgetRow("churn-open apply", applies, dispatchNS),
	}
	res.predictions = predictions(res.budget, hitRatioHot, m)
	return res, nil
}

// attach points every client of the set-up at the tracer (nil detaches).
func (s *servingSetup) attach(t *tracer) {
	for _, c := range s.clients {
		c.trace = t
	}
}

// finishPass runs a traced pass's end-of-run checks and returns its
// operation counts.
func finishPass(s *servingSetup) outcome {
	var o outcome
	for _, c := range s.clients {
		o.add(c.out)
	}
	s.finish(&o)
	return o
}

func durs(rows []traceRow, unit time.Duration, f func(traceRow) time.Duration) []float64 {
	out := make([]float64, len(rows))
	for i, r := range rows {
		out[i] = float64(f(r)) / float64(unit)
	}
	return out
}

// probeServer reports the server layer from the hot-read pass, and the
// engine's hit path and allocation figures from loops over the same warm
// keys.
func probeServer(m metricSet, s *servingSetup, hot []traceRow, dispatch time.Duration) {
	req := durs(hot, time.Microsecond, func(r traceRow) time.Duration { return r.req })
	self := durs(hot, time.Microsecond, func(r traceRow) time.Duration { return r.req - dispatch - r.eng })
	m.timing("server.request_us", req)
	m.pct("server.request_p99_us", req, 0.99)
	m.timing("server.self_us", self)
	m.value("server.self_share", median(self)/median(req), len(hot))

	// One goroutine, nothing else running: allocation per request is the
	// process-wide delta over a fixed loop.
	fx, c := s.env.fx, newClients(s.env.srv, 1)[0]
	const n = 5000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		c.query.do(s.next(0, i).spec.body)
	}
	runtime.ReadMemStats(&after)
	m.value("server.allocs_per_req", float64(after.Mallocs-before.Mallocs)/n, n)
	m.value("server.bytes_per_req", float64(after.TotalAlloc-before.TotalAlloc)/n, n)
	var resp int64
	for i := 0; i < n; i++ {
		_, body := c.query.do(s.next(0, i).spec.body)
		resp += int64(len(body))
	}
	m.value("server.resp_bytes_per_req", float64(resp)/n, n)

	// A hit is ~150 ns, the clock read ~30: time batches of 64.
	var hit []float64
	for b := 0; b < 300; b++ {
		t0 := time.Now()
		for i := 0; i < 64; i++ {
			if _, err := searchDirect(s.env.eng, fx.queries[fx.hotKeys[(b*64+i)%len(fx.hotKeys)]].nodes); err != nil {
				panic(err)
			}
		}
		hit = append(hit, float64(time.Since(t0))/64)
	}
	m.timing("engine.search_hit_ns", hit)
}

// probeApplies reports the write path from the churn pass's paired
// applies.
func probeApplies(m metricSet, t *tracer, applies []traceRow) {
	m.timing("server.apply_request_ms", durs(applies, time.Millisecond, func(r traceRow) time.Duration { return r.req }))
	m.timing("engine.apply_ms", durs(applies, time.Millisecond, func(r traceRow) time.Duration { return r.eng }))
	m.timing("engine.apply_self_ms", durs(applies, time.Millisecond, func(r traceRow) time.Duration { return r.eng - r.graph - r.wal }))
	m.timing("graph.merge_csr_ms", durs(applies, time.Millisecond, func(r traceRow) time.Duration { return r.merge }))
	m.timing("graph.update_components_us", durs(applies, time.Microsecond, func(r traceRow) time.Duration { return r.update }))
	m.timing("wal.append_us", durs(applies, time.Microsecond, func(r traceRow) time.Duration { return r.wal }))
	var inval, retained, reflooded int
	for _, st := range t.applied {
		inval += st.Invalidated
		retained += st.Retained
		reflooded += st.RefloodedNodes
	}
	n := max(len(t.applied), 1)
	m.value("engine.invalidated_per_apply", float64(inval)/float64(n), len(t.applied))
	m.value("engine.retained_share", share(uint64(retained), uint64(retained+inval)), len(t.applied))
	m.value("graph.reflooded_nodes_per_apply", float64(reflooded)/float64(n), len(t.applied))
	m.value("wal.syncs_per_apply", float64(len(t.durable))/float64(n), len(t.applied))
}

// probeWAL reports the log's own numbers: bytes per record from the
// scratch segment's size, explicit syncs, and checkpoint and recovery on
// the twin durable engine's directory.
func probeWAL(m metricSet, scratch *wal.Log, logDir string, applies []traceRow, twin *servingEnv, gen *churnGen) {
	var syncs []float64
	for i := 0; i < 8; i++ {
		t0 := time.Now()
		if err := scratch.Sync(); err != nil {
			panic(fmt.Sprintf("dmcsbench: scratch WAL sync: %v", err))
		}
		syncs = append(syncs, ms(time.Since(t0)))
	}
	m.timing("wal.sync_ms", syncs)
	_ = scratch.Close()
	m.value("wal.bytes_per_apply", float64(dirBytes(logDir, ".log"))/float64(max(len(applies), 1)), len(applies))

	// Each checkpoint follows the stream's next batch, or it would be a
	// no-op.
	var ckpt []float64
	for i := 0; i < 3; i++ {
		b := gen.nextBatch()
		if status, _ := newCaller(twin.srv, "/apply").do(b.body()); status != 200 {
			panic(fmt.Sprintf("dmcsbench: checkpoint probe apply: status %d", status))
		}
		t0 := time.Now()
		if _, err := twin.eng.Checkpoint(); err != nil {
			panic(fmt.Sprintf("dmcsbench: checkpoint: %v", err))
		}
		ckpt = append(ckpt, ms(time.Since(t0)))
	}
	m.timing("wal.checkpoint_ms", ckpt)
	m.value("wal.checkpoint_bytes", float64(dirBytes(twin.dir, ".ckpt")), 1)

	var recov []float64
	eng := twin.eng
	for i := 0; i < 3; i++ {
		if err := eng.CloseWAL(); err != nil {
			panic(fmt.Sprintf("dmcsbench: close WAL: %v", err))
		}
		t0 := time.Now()
		var err error
		if eng, _, err = engine.OpenDurable(nil, walOptions(twin.dir), engineOptions); err != nil {
			panic(fmt.Sprintf("dmcsbench: recover: %v", err))
		}
		recov = append(recov, ms(time.Since(t0)))
	}
	twin.eng = eng // so close() closes the log that is open now
	m.timing("wal.recover_ms", recov)
}

func dirBytes(dir, suffix string) int64 {
	var n int64
	names, _ := filepath.Glob(filepath.Join(dir, "*"+suffix))
	for _, name := range names {
		if fi, err := os.Stat(name); err == nil {
			n += fi.Size()
		}
	}
	return n
}

// paperPass is the traced paper-lfr pass.
type paperPass struct {
	out          outcome
	spans        int
	mismatches   int
	callMedianUS float64 // median of the timed loop's calls (pruned FPA): the overhead baseline's counterpart
}

// tracePaper makes one pass over plain FPA, pruned FPA and NCA: the root
// dmcs.Search (which packs a CSR per call), then dmcs.SearchCSR on a CSR
// packed beforehand, then the pack alone; and it scores plain FPA's and
// NCA's communities against the LFR ground truth.
func tracePaper(m metricSet, fx *paperFixture) paperPass {
	var p paperPass
	var pack, recompute, prunedUS []float64
	layer := [3]string{"dmcs.fpa_lfr_ms", "dmcs.fpa_pruned_lfr_ms", "dmcs.nca_lfr_ms"}
	f1 := [3]string{"dmcs.fpa_f1", "", "dmcs.nca_f1"}
	for vi, v := range tracedVariants {
		c := fx.caseOf(v)
		csr := graph.NewCSR(c.g)
		var onCSR, scores []float64
		for _, q := range c.queries {
			t0 := time.Now()
			res, err := api.Search(c.g, q, v.variant, v.opts)
			if el := us(time.Since(t0)); v.opts.LayerPruning {
				prunedUS = append(prunedUS, el)
			}
			p.out.attempted++
			if err != nil || checkResult(c.g, q, res) != nil {
				p.out.failed++
				p.out.checkFails++
				continue
			}
			p.out.within++
			scores = append(scores, metrics.FScore(res.Community, c.truthOf(q), c.g.NumNodes()))
			t0 = time.Now()
			res2, err := api.SearchCSR(csr, q, v.variant, v.opts)
			onCSR = append(onCSR, ms(time.Since(t0)))
			if err != nil || !slices.Equal(res.Community, res2.Community) {
				p.mismatches++
			}
			t0 = time.Now()
			want := modularity.Density(c.g, res.Community)
			recompute = append(recompute, us(time.Since(t0)))
			if math.Abs(want-res.Score) > 1e-9 {
				p.mismatches++
			}
			if !v.twin {
				t0 = time.Now()
				graph.NewCSR(c.g)
				pack = append(pack, ms(time.Since(t0)))
			}
			p.spans += 3
		}
		m.timing(layer[vi], onCSR)
		if f1[vi] != "" && len(scores) > 0 {
			m.value(f1[vi], interquartileMean(scores), len(scores))
		}
	}
	m.timing("graph.pack_csr_ms", pack)
	m.timing("modularity.density_recompute_us", recompute)
	p.callMedianUS = median(prunedUS)
	return p
}

// probeKernels times the layers' exported kernels alone, on one
// goroutine, over the serving fixture's islands and whale.
func probeKernels(m metricSet, fx *servingFixture, o *outcome) {
	eng := engine.New(fx.g, engineOptions)
	snap := eng.Snapshot()
	arena, ga := core.NewArena(), graph.NewArena()
	opts := queryOptions(core.VariantFPA)
	hotIslands, hotWhales := churnKeys(fx) // every hot island key, 16 whale keys

	search := func(u int32, v core.Variant, o core.Options) (*core.Result, time.Duration) {
		q := fx.queries[u].nodes
		id, _ := snap.ComponentID(q)
		t0 := time.Now()
		res, err := core.SearchSub(arena, snap.SubCSR(id), q, snap.ComponentMembers(id), v, o)
		el := time.Since(t0)
		if err != nil {
			panic(fmt.Sprintf("dmcsbench: kernel probe search: %v", err))
		}
		return res, el
	}
	var fpaIsland, ncaIsland []float64
	var before, after runtime.MemStats
	search(hotIslands[0], core.VariantFPA, opts) // grow the arena before counting
	runtime.ReadMemStats(&before)
	for _, u := range hotIslands {
		_, el := search(u, core.VariantFPA, opts)
		fpaIsland = append(fpaIsland, us(el))
	}
	runtime.ReadMemStats(&after)
	m.timing("dmcs.fpa_island_us", fpaIsland)
	m.value("dmcs.allocs_per_search", float64(after.Mallocs-before.Mallocs)/float64(len(hotIslands)), len(hotIslands))
	for _, u := range hotIslands {
		_, el := search(u, core.VariantNCA, core.Options{})
		ncaIsland = append(ncaIsland, us(el))
	}
	m.timing("dmcs.nca_island_us", ncaIsland)

	// The whale, serial and with the gang (the server never sets
	// Parallelism, so this is the only place the gang is measured).
	var serial, par, perRemoval []float64
	iterations := 0
	parOpts := opts
	parOpts.Parallelism = runtime.NumCPU()
	for round := 0; round < 2; round++ {
		for _, u := range hotWhales {
			res, el := search(u, core.VariantFPA, opts)
			serial = append(serial, ms(el))
			perRemoval = append(perRemoval, float64(el)/float64(max(res.Iterations, 1)))
			if round == 0 {
				iterations += res.Iterations
			}
			resPar, elPar := search(u, core.VariantFPA, parOpts)
			par = append(par, ms(elPar))
			if !slices.Equal(res.Community, resPar.Community) || math.Float64bits(res.Score) != math.Float64bits(resPar.Score) {
				o.checkFails++
			}
		}
	}
	m.timing("dmcs.fpa_whale_ms", serial)
	m.timing("dmcs.fpa_whale_par_ms", par)
	m.value("dmcs.iterations_per_query", float64(iterations)/float64(len(hotWhales)), len(hotWhales))
	m.timing("dmcs.ns_per_removal", perRemoval)

	// graph kernels over the whale's sub-CSR
	whaleID, _ := snap.ComponentID(fx.queries[hotWhales[0]].nodes)
	members := snap.ComponentMembers(whaleID)
	var extract, bfs, art, remove []float64
	var sub *graph.SubCSR
	for i := 0; i < 10; i++ {
		t0 := time.Now()
		sub = graph.NewSubCSR(snap.CSR(), members)
		extract = append(extract, us(time.Since(t0)))
	}
	k := sub.NumNodes()
	for i := 0; i < 20; i++ {
		v := ga.ViewAll(0, sub)
		src, _ := sub.LocalOf(fx.queries[hotWhales[i%len(hotWhales)]].nodes[0])
		t0 := time.Now()
		v.MultiSourceBFSInto([]graph.Node{src}, ga.Dist(0, k), ga.Queue(k))
		bfs = append(bfs, us(time.Since(t0)))
		t0 = time.Now()
		v.ArticulationPointsInto(ga.Art())
		art = append(art, us(time.Since(t0)))
		t0 = time.Now()
		for u := 1; u < k; u++ {
			v.Remove(graph.Node(u))
		}
		remove = append(remove, float64(time.Since(t0))/float64(k-1))
	}
	m.timing("graph.subcsr_extract_us", extract)
	m.timing("graph.bfs_whale_us", bfs)
	m.timing("graph.articulation_whale_us", art)
	m.timing("graph.view_remove_ns", remove)

	// 64-query batches of island misses through the fused batch path
	var batch []float64
	qs := make([]engine.Query, 64)
	for b := 0; b < 32; b++ {
		for i := range qs {
			qs[i] = engine.Query{Nodes: fx.queries[(b*64+i)%fx.islandNodes()].nodes, Variant: core.VariantFPA, Opts: opts}
		}
		t0 := time.Now()
		out := eng.SearchBatch(context.Background(), qs)
		batch = append(batch, us(time.Since(t0))/64)
		for _, r := range out {
			if r.Err != nil {
				o.checkFails++
			}
		}
	}
	m.timing("engine.batch_us_per_query", batch)
}

// probeBaselines runs the paper's k-core and k-truss baselines on the
// lfr-paper graph: reference rows for the FPA-versus-baseline ratio.
func probeBaselines(m metricSet, fx *paperFixture) {
	cfg := harness.DefaultConfig(io.Discard)
	for _, b := range []struct{ metric, algo string }{
		{"harness.kcore_query_ms", harness.AlgoKC}, {"harness.ktruss_query_ms", harness.AlgoKT},
	} {
		var xs []float64
		for _, q := range fx.big.queries[:min(8, len(fx.big.queries))] {
			if _, el, err := cfg.Run(b.algo, fx.big.g, q); err == nil {
				xs = append(xs, ms(el))
			}
		}
		m.timing(b.metric, xs)
	}
}

// tracedRun is a driver run with tracing on: a short untraced run of the
// workload for the overhead baseline, then the whole traced suite.
func tracedRun(workload string, sz scale, seed int64, phase time.Duration) (metricSet, outcome, error) {
	base, err := measure(io.Discard, workload, sz, seed, min(phase, 2*time.Second), 1)
	if err != nil {
		return nil, outcome{}, err
	}
	o := base.out
	tr, err := traceAll(sz, seed, workload, base.plainUS)
	if err != nil {
		return nil, o, err
	}
	o.add(tr.out)
	printBudget(os.Stdout, tr.budget)
	printPredictions(os.Stdout, tr.predictions)
	return tr.metrics, o, nil
}
