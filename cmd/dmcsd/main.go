// Command dmcsd serves DMCS community search over HTTP with overload
// protection: cost-aware admission control, client deadline budgets,
// and graceful degradation to epoch-stale cached answers when the
// engine saturates (see internal/server for the full policy).
//
// Usage:
//
//	dmcsd -graph graph.txt [-addr :7473] [-workers 8] [-slo 50ms]
//	dmcsd -graph graph.txt -data-dir /var/lib/dmcs [-fsync always]
//
// Endpoints:
//
//	POST /query   {"nodes":[0,7], "variant":"FPA", "timeout_ms":100}
//	POST /apply   update-stream lines: add/setw/del/node with numeric ids
//	GET  /stats   engine counters + admission state (JSON)
//	GET  /healthz liveness + overload state
//	GET  /debug/state  canonical binary state image (with -state-dump)
//
// Query responses carry "stale": true when answered from a superseded
// graph epoch under overload (disable per request with "no_stale":
// true). Refused requests get JSON errors with a machine-readable code
// and, where retrying helps, a Retry-After header.
//
// With -data-dir the graph state is durable: every applied batch is
// written ahead to a CRC-framed log before it is acknowledged, periodic
// checkpoints bound replay time, and boot recovers the last durable
// epoch — newest valid checkpoint plus log replay, with a torn final
// record truncated — BEFORE the listener binds, so a recovering process
// never serves pre-recovery state. On the first boot the -graph file
// seeds the directory; afterwards the durable state is authoritative
// and -graph contributes nothing. -fsync picks the durability/latency
// trade-off (see internal/wal).
//
// SIGINT/SIGTERM starts a graceful drain: new requests are refused with
// 503 while in-flight ones finish (bounded by -drain-timeout), the WAL
// is fsynced, a final checkpoint is written, then the process exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"dmcs/internal/engine"
	"dmcs/internal/graph"
	"dmcs/internal/server"
	"dmcs/internal/wal"
)

func main() {
	var (
		graphPath    = flag.String("graph", "", "edge-list file (required; '-' for stdin)")
		addr         = flag.String("addr", ":7473", "listen address")
		workers      = flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent computed searches in the engine")
		cacheSize    = flag.Int("cache", 0, "result cache entries (0 = engine default)")
		staleKeep    = flag.Int("stale-retention", 8, "epochs of superseded results kept for degraded-mode serving (0 disables)")
		slo          = flag.Duration("slo", 50*time.Millisecond, "p99 latency target feeding the overload controller (0 = queue-depth signal only)")
		maxInflight  = flag.Int("max-inflight", 0, "admitted-query bound (0 = 8×GOMAXPROCS)")
		expNodes     = flag.Int("expensive-nodes", 0, "component size classifying a query as expensive (0 = 8192)")
		cheapRate    = flag.Float64("cheap-rate", 0, "cheap-class admission tokens/sec (0 = default)")
		expRate      = flag.Float64("expensive-rate", 0, "expensive-class admission tokens/sec (0 = default)")
		defTimeout   = flag.Duration("default-timeout", 2*time.Second, "deadline budget for requests without timeout_ms")
		maxTimeout   = flag.Duration("max-timeout", 30*time.Second, "cap on client-requested budgets")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight requests")

		dataDir   = flag.String("data-dir", "", "durability directory: write-ahead log + checkpoints (empty = no durability)")
		fsync     = flag.String("fsync", "interval", "WAL fsync policy: always, interval, or off")
		fsyncIvl  = flag.Duration("fsync-interval", 0, "background fsync period under -fsync interval (0 = 50ms)")
		ckptEvery = flag.Int("checkpoint-every", 1024, "checkpoint after this many applied batches (0 disables periodic checkpoints)")
		segBytes  = flag.Int64("wal-segment-bytes", 0, "WAL segment rotation size (0 = 64MiB)")
		stateDump = flag.Bool("state-dump", false, "expose GET /debug/state (canonical binary state image)")
	)
	flag.Parse()
	if *graphPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	// Every numeric flag is a count, a rate, a size or a duration, and 0
	// already means "the default": a negative value is never meant. Left
	// alone, a negative -max-inflight panics in server.New and a negative
	// rate builds a bucket that sheds every request forever.
	flag.VisitAll(func(f *flag.Flag) {
		negative := false
		switch v := f.Value.(flag.Getter).Get().(type) {
		case int:
			negative = v < 0
		case int64:
			negative = v < 0
		case float64:
			negative = !(v >= 0) // NaN too
		case time.Duration:
			negative = v < 0
		}
		if negative {
			usagef("-%s %s: must not be negative", f.Name, f.Value)
		}
	})
	if *maxTimeout != 0 && *maxTimeout < *defTimeout {
		usagef("-max-timeout %s is below -default-timeout %s", *maxTimeout, *defTimeout)
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

	eopts := engine.Options{
		Workers:         *workers,
		CacheSize:       *cacheSize,
		StaleRetention:  *staleKeep,
		CheckpointEvery: *ckptEvery,
	}
	var eng *engine.Engine
	if *dataDir != "" {
		// Recovery happens here, before the listener binds: a client that
		// can connect is guaranteed to see the recovered state, never a
		// partially replayed one.
		policy, err := wal.ParseSyncPolicy(*fsync)
		if err != nil {
			fatalf("%v", err)
		}
		var info engine.RecoveryInfo
		eng, info, err = engine.OpenDurable(g, wal.Options{
			Dir:          *dataDir,
			Policy:       policy,
			Interval:     *fsyncIvl,
			SegmentBytes: *segBytes,
		}, eopts)
		if err != nil {
			fatalf("open data dir: %v", err)
		}
		if info.FreshStart {
			fmt.Printf("dmcsd: initialized %s from %s (epoch 0 checkpointed, fsync=%s)\n", *dataDir, *graphPath, policy)
		} else {
			fmt.Printf("dmcsd: recovered %s: epoch=%d (checkpoint=%d + %d replayed records, torn-bytes=%d, skipped-checkpoints=%d, fsync=%s)\n",
				*dataDir, info.RecoveredEpoch, info.CheckpointEpoch, info.RecordsReplayed,
				info.TruncatedBytes, info.SkippedCheckpoints, policy)
		}
	} else {
		eng = engine.New(g, eopts)
	}
	srv := server.New(eng, server.Config{
		DefaultTimeout: *defTimeout,
		MaxTimeout:     *maxTimeout,
		MaxInflight:    *maxInflight,
		ExpensiveNodes: *expNodes,
		CheapRate:      *cheapRate,
		ExpensiveRate:  *expRate,
		StaleMaxBehind: *staleKeep,
		Overload:       server.OverloadConfig{SLO: *slo},
		StateDump:      *stateDump,
	})
	hs := &http.Server{Handler: srv}

	// Bind explicitly so ":0" reports its real port before serving — the
	// kill-crash harness (and any supervisor) reads it from this line.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatalf("listen: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	snap := eng.Snapshot()
	fmt.Printf("dmcsd: serving %d nodes / %d edges on %s (workers=%d stale-retention=%d slo=%s)\n",
		snap.CSR().NumNodes(), snap.CSR().NumEdges(), ln.Addr(), eng.Workers(), *staleKeep, *slo)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-done:
		fatalf("serve: %v", err)
	case s := <-sig:
		fmt.Printf("dmcsd: %s — draining (up to %s)\n", s, *drainTimeout)
	}

	// Drain: refuse new work immediately, make everything already
	// acknowledged durable (flush + fsync the WAL before waiting on
	// in-flight requests — if the bounded wait is cut short, durability
	// is already settled), let in-flight requests finish, then stop the
	// listener and the overload sampler, checkpoint, and close the log.
	srv.StartDrain()
	if err := eng.SyncWAL(); err != nil {
		fmt.Fprintf(os.Stderr, "dmcsd: drain wal sync: %v\n", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "dmcsd: drain incomplete: %v\n", err)
	}
	srv.Close()
	if *dataDir != "" {
		if _, err := eng.Checkpoint(); err != nil {
			fmt.Fprintf(os.Stderr, "dmcsd: final checkpoint: %v\n", err)
		}
		if err := eng.CloseWAL(); err != nil {
			fmt.Fprintf(os.Stderr, "dmcsd: close wal: %v\n", err)
		}
	}
	st := eng.Stats()
	durable, _ := eng.DurableEpoch()
	fmt.Printf("dmcsd: drained. served=%d cache-hits=%d stale-served=%d shed=%d rejected=%d timed-out=%d errors=%d invalidated=%d retained=%d durable-epoch=%d\n",
		st.Queries, st.CacheHits, st.StaleServed, st.Shed, st.Rejected, st.TimedOut, st.Errors,
		st.Invalidated, st.Retained, durable)
}

// usagef reports a flag value dmcsd cannot run with; exit status 2, as for
// a flag the flag package itself rejects.
func usagef(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dmcsd: "+format+"\n", args...)
	os.Exit(2)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dmcsd: "+format+"\n", args...)
	os.Exit(1)
}
