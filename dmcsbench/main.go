// Command dmcsbench is the repository's benchmark: four named workloads
// over the whole DMCS stack, five end-to-end metrics with regression
// bounds that every workload produces, and a per-layer table from a
// separate traced run. See README.md in this directory and BENCHMARK.json
// at the repository root.
//
//	go run . -list                          # metric and workload names
//	go run .                                # all four workloads, traced run, budget table, JSON report
//	go run . -repeat 2                      # the whole set twice; exits 1 if any end-to-end metric disagrees past its bound
//	go run . --workload hot-read --seed 1 --seconds 24 --trace 0   # one driver run; last line is the result JSON
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"time"
)

// fullPhaseSeconds is the timed phase of a full report, the same as
// BENCHMARK.json's run_seconds, which the driver passes. setup_s is the
// median of setupRepeats set-ups.
const (
	fullPhaseSeconds = 24
	setupRepeats     = 3
)

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload and print the driver's result line (empty = full report)")
		seed     = flag.Int64("seed", 1, "workload seed: every input is generated from it")
		seconds  = flag.Float64("seconds", 0, "timed phase per workload in seconds (0 = 24, BENCHMARK.json's run_seconds)")
		trace    = flag.Int("trace", 0, "with -workload: 0 = end-to-end metrics, 1 = traced run and per-layer metrics")
		list     = flag.Bool("list", false, "print workload and metric names and exit")
		repeat   = flag.Int("repeat", 1, "run the whole untraced set this many times and compare the sets")
		out      = flag.String("out", ".bench_build/dmcsbench-report.json", "where a full run writes its JSON report")
	)
	flag.Parse()
	if *list {
		printCatalogue(os.Stdout)
		return
	}
	phase := time.Duration(*seconds * float64(time.Second))
	if phase <= 0 {
		phase = fullPhaseSeconds * time.Second
	}
	var err error
	switch {
	case *workload != "":
		err = driverRun(*workload, *seed, phase, *trace != 0)
	case *repeat > 1:
		err = repeatRun(*repeat, *seed, phase)
	default:
		err = fullRun(*seed, phase, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dmcsbench:", err)
		os.Exit(1)
	}
}

// measured is one untraced run of one workload.
type measured struct {
	metrics metricSet
	out     outcome
	plainUS float64 // plain median of every query of the phase, for the tracing overhead
}

// measure runs one workload untraced: `setups` set-ups (the last one is
// kept), the timed phase, the end-of-run checks. It reports every
// end-to-end metric. A failed correctness check is counted in the
// outcome, not returned as an error: the run still reports, marked
// incorrect.
func measure(w io.Writer, workload string, sz scale, seed int64, phase time.Duration, setups int) (*measured, error) {
	r := &measured{metrics: metricSet{}}
	m := r.metrics
	var setupS []float64
	if workload == "paper-lfr" {
		var fx *paperFixture
		for i := 0; i < setups; i++ {
			t0 := time.Now()
			var err error
			if fx, err = setupPaper(sz, sz.fpaSets, sz.ncaSets, seed); err != nil {
				return nil, err
			}
			setupS = append(setupS, time.Since(t0).Seconds())
		}
		p := runPaper(fx, phase, 0)
		p.metricsInto(m)
		r.out, r.plainUS = p.out, m["query_p50_us"].Plain
		p.calls = [2][][]float64{} // the harness's own samples are not the library's heap
		m.value("live_heap_mb", liveHeapMiB(), 1)
		runtime.KeepAlive(fx) // the graphs are live heap, as they are for a library user
		m.timing("setup_s", setupS)
		if r.out.checkFails > 0 {
			fmt.Fprintf(os.Stderr, "dmcsbench: paper-lfr: %d results failed the definition checks\n", r.out.checkFails)
		}
		return r, nil
	}

	var s *servingSetup
	for i := 0; i < setups; i++ {
		if s != nil {
			s.env.close()
		}
		t0 := time.Now()
		var err error
		if s, err = setupServing(workload, sz, seed); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer s.env.close()
	s.run(phase, 0)
	r.out = servingMetrics(w, m, s.clients, s.costly())
	r.plainUS = median(plainQueries(s.clients))
	// The harness lets go of its own samples — the held-back answers too,
	// once checked — before the heap is measured: their number grows with
	// the system's speed, and a faster system must not read as a fatter one.
	for _, c := range s.clients {
		c.lat, c.grp, c.late = [numClasses][]int32{}, [numClasses][]int32{}, nil
	}
	if s.gen != nil {
		s.settle()
	}
	s.finish(&r.out)
	m.value("live_heap_mb", liveHeapMiB(), 1)
	m.timing("setup_s", setupS)
	return r, nil
}

// driverRun is one run as the benchmark driver makes them: one workload,
// one seed, and as its last line of output one JSON object with either
// every end-to-end metric (trace off) or every per-layer metric (on).
func driverRun(workload string, seed int64, phase time.Duration, traced bool) error {
	if !slices.Contains(workloadNames, workload) {
		return fmt.Errorf("unknown workload %q (have %v)", workload, workloadNames)
	}
	var (
		m   metricSet
		o   outcome
		cat = endToEnd
	)
	if traced {
		cat = perLayer
		var err error
		if m, o, err = tracedRun(workload, benchScale, seed, phase); err != nil {
			return err
		}
	} else {
		r, err := measure(os.Stdout, workload, benchScale, seed, phase, setupRepeats)
		if err != nil {
			return err
		}
		m, o = r.metrics, r.out
	}
	printMetrics(os.Stdout, sortedMetrics(m, cat, workload))
	line, err := driverLine(m, cat, o)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}

// fullRun is `go run .`: every workload untraced, then the traced run,
// the budget table and the interaction predictions, printed and written
// as one JSON report.
func fullRun(seed int64, phase time.Duration, out string) error {
	rep := Report{Env: fingerprint(seed, phase)}
	plain := map[string]float64{}
	for _, w := range workloadNames {
		fmt.Printf("== %s: %d set-ups, then %s timed ==\n", w, setupRepeats, phase)
		r, err := measure(os.Stdout, w, benchScale, seed, phase, setupRepeats)
		if err != nil {
			return fmt.Errorf("%s: %w", w, err)
		}
		plain[w] = r.plainUS
		rep.Attempted += r.out.attempted
		rep.Failed += r.out.failed
		rep.CheckFails += r.out.checkFails
		rep.EndToEnd = append(rep.EndToEnd, sortedMetrics(r.metrics, endToEnd, w)...)
	}
	fmt.Println("== traced run: fixed request counts ==")
	// In a full report the traffic counters and the tracing overhead are
	// hot-read's, the workload most sensitive to per-request cost.
	tr, err := traceAll(benchScale, seed, "hot-read", plain["hot-read"])
	if err != nil {
		return fmt.Errorf("traced run: %w", err)
	}
	rep.Attempted += tr.out.attempted
	rep.Failed += tr.out.failed
	rep.CheckFails += tr.out.checkFails
	rep.PerLayer = sortedMetrics(tr.metrics, perLayer, "traced")
	rep.Budget = tr.budget
	rep.Predictions = tr.predictions

	fmt.Printf("\nenvironment: %s, nproc=%d GOMAXPROCS=%d clients=%d, %s, commit %s, seed %d, timed phase %s\n",
		rep.Env.CPUModel, rep.Env.NumCPU, rep.Env.GOMAXPROCS, rep.Env.Clients, rep.Env.GoVersion, rep.Env.Commit, seed, phase)
	fmt.Printf("churn-open fixed rates: %d queries/s, %d applies/s; %s\n\n", churnQueryRate, churnApplyRate, rep.Env.DiskNote)
	fmt.Println("End-to-end (untraced run):")
	printMetrics(os.Stdout, rep.EndToEnd)
	fmt.Println("\nPer-layer (traced run):")
	printMetrics(os.Stdout, rep.PerLayer)
	fmt.Println("\nBudget: share of end-to-end time by layer (self time = span minus the paired replay one layer down):")
	printBudget(os.Stdout, rep.Budget)
	fmt.Println("\nInteraction predictions at this commit:")
	printPredictions(os.Stdout, rep.Predictions)
	fmt.Printf("\noperations attempted %d, failed %d, correctness-check failures %d\n", rep.Attempted, rep.Failed, rep.CheckFails)

	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("report written to", out)
	if rep.CheckFails > 0 {
		return fmt.Errorf("%d correctness checks failed", rep.CheckFails)
	}
	return nil
}
