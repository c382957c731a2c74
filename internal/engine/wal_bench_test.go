package engine

import (
	"math"
	"testing"
	"time"

	"dmcs/internal/graph"
	"dmcs/internal/wal"
)

// walBenchBatch is the BenchmarkEngineApplyUpdates workload: consecutive
// op pairs remove then restore the same 8 edges inside one component, so
// the graph returns to its start state every two ops and every batch is
// guaranteed effective (the epoch sequence stays dense).
func walBenchBatch(i int) Batch {
	comp := (i / 2) % benchComponents
	base := graph.Node(comp * benchCompSize)
	var batch Batch
	for k := 0; k < 8; k++ {
		u := base + graph.Node(((i/2)*11+k*5)%(benchCompSize-1))
		if i%2 == 0 {
			batch.RemoveEdge(u, u+1)
		} else {
			batch.AddEdge(u, u+1)
		}
	}
	return batch
}

// BenchmarkEngineApplyWALOverhead prices durability on the mutation
// path: the same toggle-batch workload as BenchmarkEngineApplyUpdates
// applied, op by op, first to a plain engine and then to a durable engine
// with the production default fsync policy (interval). The reported
// wal_overhead_ratio is durable time over plain time.
//
// The two engines alternate inside one loop so that both sides of the
// ratio see the same machine: since the merge dropped to ~0.5 ms an op, a
// ratio of two separately timed 100 ms loops swings between 0.9 and 2.1
// on a shared box with the WAL's fsync switched off entirely. ns/op is
// the durable engine's alone; B/op and allocs/op cover both engines.
func BenchmarkEngineApplyWALOverhead(b *testing.B) {
	base := New(smallQueryEngineGraph(benchComponents, benchCompSize), Options{Workers: 1})
	e, _, err := OpenDurable(smallQueryEngineGraph(benchComponents, benchCompSize), wal.Options{
		Dir:    b.TempDir(),
		Policy: wal.SyncInterval,
	}, Options{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer e.CloseWAL()
	var plain, durable time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := walBenchBatch(i)
		t0 := time.Now()
		base.Apply(batch)
		t1 := time.Now()
		if _, err := e.Apply(batch); err != nil {
			b.Fatal(err)
		}
		durable += time.Since(t1)
		plain += t1.Sub(t0)
	}
	b.StopTimer()
	b.ReportMetric(float64(durable)/float64(plain), "wal_overhead_ratio")
	b.ReportMetric(float64(durable.Nanoseconds())/float64(b.N), "ns/op")
}

// TestEngineApplyWALOverheadGate: the WAL append (encode + buffered
// write) stays a fraction of the merge and partition update it rides on,
// not a second copy of them — wal_overhead_ratio <= 1.5 (measured 1.04-1.08).
func TestEngineApplyWALOverheadGate(t *testing.T) {
	skipTimingGate(t)
	ratio := math.Inf(1)
	for run := 0; run < 3 && ratio > 1.5; run++ {
		ratio = min(ratio, mustBench(t, BenchmarkEngineApplyWALOverhead).Extra["wal_overhead_ratio"])
	}
	if ratio > 1.5 {
		t.Fatalf("wal_overhead_ratio %.2f, bound 1.5", ratio)
	}
}

// BenchmarkEngineApplyWALFsyncAlways records (not gates) the cost of the
// strictest policy: one fsync per acknowledged batch. The gap between
// this and the interval run above is the price of zero-loss-on-power-cut
// durability.
func BenchmarkEngineApplyWALFsyncAlways(b *testing.B) {
	e, _, err := OpenDurable(smallQueryEngineGraph(benchComponents, benchCompSize), wal.Options{
		Dir:    b.TempDir(),
		Policy: wal.SyncAlways,
	}, Options{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer e.CloseWAL()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Apply(walBenchBatch(i)); err != nil {
			b.Fatal(err)
		}
	}
}
