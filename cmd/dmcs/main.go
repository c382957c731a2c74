// Command dmcs runs density-modularity community search (and every
// baseline from the paper) on an edge-list file.
//
// Usage:
//
//	dmcs -graph graph.txt -query alice,bob [-algo FPA] [-k 3] [-timeout 60s]
//	dmcs -graph graph.txt -queries queries.txt [-parallel 8] [-algo FPA]
//
// The graph file contains one "u v" pair per line (arbitrary string
// labels; '#' comments allowed; optional third column = edge weight). The
// query is a comma-separated list of node labels. Supported -algo values:
// FPA (default), NCA, NCA-DR, FPA-DMG, clique, kc, kt, kecc, GN, CNM,
// icwi2008, huang2015, wu2015, highcore, hightruss.
//
// Batch mode: -queries names a file with one query per line (labels
// separated by commas or spaces, '#' comments allowed). The queries are
// answered concurrently by the shared-snapshot engine with -parallel
// workers; batch mode supports the DMCS variants (FPA, NCA, NCA-DR,
// FPA-DMG), prints one line per query, and ends with a throughput and
// latency summary.
//
// Update-stream mode: -updates names a file of interleaved mutations and
// queries, processed in order against a live engine:
//
//	add u v [w]     stage an edge insertion (weight defaults to 1; an
//	                explicit weight — 0 included — is applied exactly)
//	setw u v w      stage a weight change (inserts the edge if absent)
//	del u v         stage an edge removal
//	node u          stage an isolated-node creation
//	apply           apply the staged ops as one atomic batch
//	query a,b[,c]   answer a query against the current graph version
//
// Unknown labels in add/setw/node lines create new nodes. A weight, here
// as in the graph file, must be a finite, non-negative number; the line
// is refused otherwise. A query line auto-applies any staged ops first,
// so each query always sees every mutation above it. The run ends with
// the engine's serving summary.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"dmcs/internal/dmcs"
	"dmcs/internal/engine"
	"dmcs/internal/graph"
	"dmcs/internal/harness"
	"dmcs/internal/modularity"
	"dmcs/internal/wal"
)

func main() {
	var (
		graphPath  = flag.String("graph", "", "edge-list file (required; '-' for stdin)")
		queryStr   = flag.String("query", "", "comma-separated query node labels")
		queryFile  = flag.String("queries", "", "file with one query per line (batch mode)")
		updateFile = flag.String("updates", "", "file with interleaved mutations and queries (stream mode)")
		algo       = flag.String("algo", "FPA", "algorithm: FPA, NCA, NCA-DR, FPA-DMG, or a baseline name")
		k          = flag.Int("k", 3, "parameter k for kc/kecc (kt uses k+1)")
		timeout    = flag.Duration("timeout", 60*time.Second, "per-run time limit for slow algorithms")
		parallel   = flag.Int("parallel", runtime.GOMAXPROCS(0), "batch mode: concurrent search workers")
		verbose    = flag.Bool("v", false, "print the community membership")
		fullStats  = flag.Bool("stats", false, "batch/stream modes: print the full engine counter set (incl. timed-out/rejected/shed/stale-served) at the end")
		walDir     = flag.String("wal", "", "stream mode: data directory for the write-ahead log (state survives restarts; same code path as dmcsd -data-dir)")
		recoverDir = flag.Bool("recover", false, "with -wal: recover the durable state, print its epoch and stats, and exit")
	)
	flag.Parse()
	if *recoverDir {
		if *walDir == "" {
			fatalf("-recover requires -wal <dir>")
		}
		runRecover(*walDir)
		return
	}
	if *graphPath == "" || (*queryStr == "" && *queryFile == "" && *updateFile == "") {
		flag.Usage()
		os.Exit(2)
	}
	if *walDir != "" && *updateFile == "" {
		fatalf("-wal is only meaningful in update-stream mode (-updates) or with -recover")
	}

	in := os.Stdin
	if *graphPath != "-" {
		f, err := os.Open(*graphPath)
		if err != nil {
			fatalf("open graph: %v", err)
		}
		in = f
	}
	g, err := graph.ParseEdgeList(in)
	if err != nil {
		fatalf("parse graph: %v", err)
	}
	if in != os.Stdin {
		if err := in.Close(); err != nil {
			fatalf("close graph: %v", err)
		}
	}

	byLabel := make(map[string]graph.Node, g.NumNodes())
	for u := 0; u < g.NumNodes(); u++ {
		byLabel[g.Label(graph.Node(u))] = graph.Node(u)
	}

	showFullStats = *fullStats
	if *updateFile != "" {
		runUpdates(g, byLabel, *updateFile, *walDir, *algo, *parallel, *timeout, *verbose)
		return
	}
	if *queryFile != "" {
		runBatch(g, byLabel, *queryFile, *algo, *parallel, *timeout, *verbose)
		return
	}

	q := parseQuery(*queryStr, byLabel, ",")
	cfg := harness.DefaultConfig(os.Stdout)
	cfg.K = *k
	cfg.Timeout = *timeout
	comm, elapsed, err := cfg.Run(*algo, g, q)
	if err != nil {
		fatalf("%s: %v", *algo, err)
	}

	fmt.Printf("algorithm:          %s\n", *algo)
	fmt.Printf("graph:              %d nodes, %d edges\n", g.NumNodes(), g.NumEdges())
	fmt.Printf("community size:     %d\n", len(comm))
	fmt.Printf("density modularity: %.6f\n", modularity.Density(g, comm))
	fmt.Printf("classic modularity: %.6f\n", modularity.Classic(g, comm))
	fmt.Printf("elapsed:            %s\n", elapsed)
	if *verbose {
		fmt.Printf("members:            %s\n", joinLabels(g, comm))
	}
}

// runBatch answers every query in path through a shared-snapshot engine.
func runBatch(g *graph.Graph, byLabel map[string]graph.Node, path, algo string, parallel int, timeout time.Duration, verbose bool) {
	variant, ok := variantByName(algo)
	if !ok {
		fatalf("batch mode supports the DMCS variants (FPA, NCA, NCA-DR, FPA-DMG); got %q", algo)
	}
	f, err := os.Open(path)
	if err != nil {
		fatalf("open queries: %v", err)
	}

	type batchLine struct {
		text string
		err  error // label-resolution failure; not dispatched
		qIdx int   // index into qs, -1 when err != nil
	}
	var qs []engine.Query
	var batch []batchLine
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		nodes, err := resolveQuery(line, byLabel, ", \t")
		if err != nil {
			batch = append(batch, batchLine{text: line, err: err, qIdx: -1})
			continue
		}
		batch = append(batch, batchLine{text: line, qIdx: len(qs)})
		qs = append(qs, engine.Query{
			Nodes:   nodes,
			Variant: variant,
			// Match the single-query path (harness.Run), which enables the
			// Section 5.7 pruning for plain FPA.
			Opts: dmcs.Options{Timeout: timeout, LayerPruning: variant == dmcs.VariantFPA},
		})
	}
	if err := sc.Err(); err != nil {
		fatalf("read queries: %v", err)
	}
	if err := f.Close(); err != nil {
		fatalf("close queries: %v", err)
	}
	if len(batch) == 0 {
		fatalf("no queries in %s", path)
	}

	eng := engine.New(g, engine.Options{Workers: parallel})
	start := time.Now()
	results := eng.SearchBatch(context.Background(), qs)
	wall := time.Since(start)

	for _, bl := range batch {
		if bl.err != nil {
			fmt.Printf("%-24s error: %v\n", bl.text, bl.err)
			continue
		}
		r := results[bl.qIdx]
		if r.Err != nil {
			fmt.Printf("%-24s error: %v\n", bl.text, r.Err)
			continue
		}
		mark := ""
		if r.Result.TimedOut {
			mark = " TIMED-OUT(partial)"
		}
		if verbose {
			fmt.Printf("%-24s size=%-5d score=%.6f%s members: %s\n",
				bl.text, len(r.Result.Community), r.Result.Score, mark, joinLabels(g, r.Result.Community))
		} else {
			fmt.Printf("%-24s size=%-5d score=%.6f%s\n", bl.text, len(r.Result.Community), r.Result.Score, mark)
		}
	}
	st := eng.Stats()
	fmt.Printf("\nbatch: %d queries in %s (%.1f q/s, %d workers)\n",
		len(batch), wall.Round(time.Millisecond), float64(len(batch))/wall.Seconds(), eng.Workers())
	fmt.Printf("engine: served=%d cache-hits=%d collapsed=%d computed=%d errors=%d p50=%s p95=%s\n",
		st.Queries, st.CacheHits, st.Collapsed, st.Computed, st.Errors,
		st.P50.Round(time.Microsecond), st.P95.Round(time.Microsecond))
	printFullStats(st)
}

// showFullStats gates the -stats counter dump appended after the batch
// and stream summaries.
var showFullStats bool

// walAttached records that the stream engine was opened through
// OpenDurable, so the summaries include the durability counters.
var walAttached bool

// printFullStats dumps the complete engine counter set, including the
// serving-tier robustness counters (deadline expiries, pre-work
// rejections, overload sheds, degraded-mode stale answers) and the
// component-scoped invalidation counters (components superseded vs
// carried warm across Applies).
func printFullStats(st engine.Stats) {
	if !showFullStats {
		return
	}
	fmt.Printf("engine: fused=%d timed-out=%d rejected=%d shed=%d stale-served=%d cache-entries=%d p99=%s\n",
		st.Fused, st.TimedOut, st.Rejected, st.Shed, st.StaleServed, st.CacheEntries,
		st.P99.Round(time.Microsecond))
	fmt.Printf("engine: components invalidated=%d retained=%d\n", st.Invalidated, st.Retained)
	if walAttached {
		fmt.Printf("engine: durable-epoch=%d last-checkpoint=%d checkpoint-failures=%d wal-sync-errors=%d\n",
			st.DurableEpoch, st.LastCheckpoint, st.CheckpointFailures, st.WALSyncErrors)
	}
}

// runUpdates processes an update-stream file: mutations are staged into a
// batch, applied atomically on `apply` (or implicitly before a query),
// and queries are answered by the live engine against the current graph
// version.
func runUpdates(g *graph.Graph, byLabel map[string]graph.Node, path, walDir, algo string, parallel int, timeout time.Duration, verbose bool) {
	variant, ok := variantByName(algo)
	if !ok {
		fatalf("update-stream mode supports the DMCS variants (FPA, NCA, NCA-DR, FPA-DMG); got %q", algo)
	}
	f, err := os.Open(path)
	if err != nil {
		fatalf("open updates: %v", err)
	}

	var eng *engine.Engine
	if walDir != "" {
		// Same durable code path dmcsd uses for -data-dir: on a fresh
		// directory the parsed graph seeds the log; on a non-empty one the
		// recovered state wins and -graph contributes only its labels.
		var info engine.RecoveryInfo
		eng, info, err = engine.OpenDurable(g, wal.Options{Dir: walDir}, engine.Options{Workers: parallel})
		if err != nil {
			fatalf("open wal: %v", err)
		}
		walAttached = true
		if !info.FreshStart {
			fmt.Printf("recovered: epoch=%d checkpoint=%d replayed=%d torn-bytes=%d (graph file superseded by durable state)\n",
				info.RecoveredEpoch, info.CheckpointEpoch, info.RecordsReplayed, info.TruncatedBytes)
		}
	} else {
		eng = engine.New(g, engine.Options{Workers: parallel})
	}
	// Labels grow with the graph; new tokens in mutation lines intern as
	// fresh node ids staged into the pending batch.
	labels := make([]string, g.NumNodes())
	for u := range labels {
		labels[u] = g.Label(graph.Node(u))
	}
	var pending engine.Batch
	intern := func(tok string) graph.Node {
		if id, ok := byLabel[tok]; ok {
			return id
		}
		id := graph.Node(len(labels))
		byLabel[tok] = id
		labels = append(labels, tok)
		pending.AddNode(id)
		return id
	}
	labelOf := func(u graph.Node) string {
		if int(u) < len(labels) {
			return labels[u]
		}
		return fmt.Sprintf("%d", u)
	}
	applyPending := func() {
		if pending.Len() == 0 {
			return
		}
		st, err := eng.Apply(pending)
		if err != nil {
			fatalf("apply: %v", err)
		}
		pending.Reset()
		fmt.Printf("apply: epoch=%d +%dn +%de -%de ~%dw reflooded=%d components=%d\n",
			st.Epoch, st.NodesAdded, st.EdgesAdded, st.EdgesRemoved, st.WeightsChanged,
			st.RefloodedNodes, st.Components)
	}

	ctx := context.Background()
	sc := bufio.NewScanner(f)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// Split on any whitespace, like every other parser in the
		// toolchain; rest keeps the raw operand text for query lines.
		cmd := strings.ToLower(strings.Fields(line)[0])
		rest := strings.TrimSpace(line[len(cmd):])
		fields := strings.Fields(rest)
		switch cmd {
		case "add", "setw":
			if len(fields) < 2 {
				fatalf("line %d: %s wants at least 2 labels", lineNo, cmd)
			}
			u, v := intern(fields[0]), intern(fields[1])
			w := 1.0
			if len(fields) >= 3 {
				if w, err = graph.ParseWeight(fields[2]); err != nil {
					fatalf("line %d: %v", lineNo, err)
				}
			} else if cmd == "setw" {
				fatalf("line %d: setw wants an explicit weight", lineNo)
			}
			// A bare add is the API's AddEdge; an explicit weight column
			// (0 included) is honored exactly via SetWeight.
			if cmd == "add" && len(fields) < 3 {
				pending.AddEdge(u, v)
			} else {
				pending.SetWeight(u, v, w)
			}
		case "del":
			if len(fields) < 2 {
				fatalf("line %d: del wants 2 labels", lineNo)
			}
			// del never creates nodes: unknown labels mean the edge cannot
			// exist, so the removal is a no-op.
			u, uok := byLabel[fields[0]]
			v, vok := byLabel[fields[1]]
			if uok && vok {
				pending.RemoveEdge(u, v)
			}
		case "node":
			if len(fields) < 1 {
				fatalf("line %d: node wants a label", lineNo)
			}
			for _, tok := range fields {
				u := intern(tok)
				pending.AddNode(u) // idempotent for already-interned labels
			}
		case "apply":
			applyPending()
		case "query":
			applyPending() // a query always sees every mutation above it
			nodes, err := resolveQuery(rest, byLabel, ", \t")
			if err != nil {
				fmt.Printf("%-24s error: %v\n", line, err)
				continue
			}
			res, err := eng.Search(ctx, engine.Query{
				Nodes:   nodes,
				Variant: variant,
				Opts:    dmcs.Options{Timeout: timeout, LayerPruning: variant == dmcs.VariantFPA},
			})
			if err != nil {
				fmt.Printf("%-24s error: %v\n", line, err)
				continue
			}
			mark := ""
			if res.TimedOut {
				mark = " TIMED-OUT(partial)"
			}
			if verbose {
				members := make([]string, len(res.Community))
				for i, u := range res.Community {
					members[i] = labelOf(u)
				}
				fmt.Printf("%-24s epoch=%-3d size=%-5d score=%.6f%s members: %s\n",
					line, eng.Epoch(), len(res.Community), res.Score, mark, strings.Join(members, " "))
			} else {
				fmt.Printf("%-24s epoch=%-3d size=%-5d score=%.6f%s\n",
					line, eng.Epoch(), len(res.Community), res.Score, mark)
			}
		default:
			fatalf("line %d: unknown command %q (want add/setw/del/node/apply/query)", lineNo, cmd)
		}
	}
	if err := sc.Err(); err != nil {
		fatalf("read updates: %v", err)
	}
	if err := f.Close(); err != nil {
		fatalf("close updates: %v", err)
	}
	applyPending()
	if walAttached {
		// Make everything applied durable and leave a fresh checkpoint so
		// the next run replays nothing.
		if err := eng.SyncWAL(); err != nil {
			fatalf("wal sync: %v", err)
		}
		if _, err := eng.Checkpoint(); err != nil {
			fatalf("checkpoint: %v", err)
		}
		if err := eng.CloseWAL(); err != nil {
			fatalf("wal close: %v", err)
		}
	}
	st := eng.Stats()
	fmt.Printf("\nstream done: epoch=%d served=%d cache-hits=%d collapsed=%d computed=%d errors=%d p50=%s p95=%s\n",
		eng.Epoch(), st.Queries, st.CacheHits, st.Collapsed, st.Computed, st.Errors,
		st.P50.Round(time.Microsecond), st.P95.Round(time.Microsecond))
	printFullStats(st)
}

// runRecover opens a WAL data directory, recovers the durable state
// (newest valid checkpoint plus the replayable log suffix), prints what
// it found, and exits. A missing or empty directory is initialized as a
// fresh empty state — the same semantics dmcsd applies on first boot.
func runRecover(dir string) {
	eng, info, err := engine.OpenDurable(nil, wal.Options{Dir: dir}, engine.Options{})
	if err != nil {
		fatalf("recover: %v", err)
	}
	snap := eng.Snapshot()
	csr := snap.CSR()
	durable, _ := eng.DurableEpoch()
	fmt.Printf("recovered: epoch=%d durable-epoch=%d fresh=%v\n", eng.Epoch(), durable, info.FreshStart)
	fmt.Printf("checkpoint: epoch=%d skipped=%d\n", info.CheckpointEpoch, info.SkippedCheckpoints)
	fmt.Printf("log: replayed=%d records, torn-bytes=%d truncated\n", info.RecordsReplayed, info.TruncatedBytes)
	fmt.Printf("graph: %d nodes, %d edges, %d components (weighted=%v)\n",
		csr.NumNodes(), csr.NumEdges(), snap.NumComponents(), csr.Weighted())
	if err := eng.CloseWAL(); err != nil {
		fatalf("wal close: %v", err)
	}
}

// parseQuery resolves a separated list of node labels, exiting on unknown
// labels (single-query mode).
func parseQuery(s string, byLabel map[string]graph.Node, seps string) []graph.Node {
	q, err := resolveQuery(s, byLabel, seps)
	if err != nil {
		fatalf("%v", err)
	}
	return q
}

// resolveQuery resolves a separated list of node labels, reporting unknown
// labels as an error so batch mode can fail one query without aborting the
// rest.
func resolveQuery(s string, byLabel map[string]graph.Node, seps string) ([]graph.Node, error) {
	var q []graph.Node
	for _, tok := range strings.FieldsFunc(s, func(r rune) bool { return strings.ContainsRune(seps, r) }) {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		u, ok := byLabel[tok]
		if !ok {
			return nil, fmt.Errorf("unknown query node %q", tok)
		}
		q = append(q, u)
	}
	return q, nil
}

// variantByName maps the CLI algorithm names to DMCS variants.
func variantByName(name string) (dmcs.Variant, bool) {
	switch strings.ToUpper(name) {
	case "FPA":
		return dmcs.VariantFPA, true
	case "NCA":
		return dmcs.VariantNCA, true
	case "NCA-DR", "NCADR":
		return dmcs.VariantNCADR, true
	case "FPA-DMG", "FPADMG":
		return dmcs.VariantFPADMG, true
	}
	return 0, false
}

func joinLabels(g *graph.Graph, comm []graph.Node) string {
	labels := make([]string, len(comm))
	for i, u := range comm {
		labels[i] = g.Label(u)
	}
	return strings.Join(labels, " ")
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "dmcs: "+format+"\n", args...)
	os.Exit(1)
}
