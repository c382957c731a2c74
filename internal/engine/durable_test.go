package engine

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"dmcs/internal/faultinject"
	"dmcs/internal/graph"
	"dmcs/internal/wal"
)

// durableFixture builds the two-cluster graph the dynamic tests use.
func durableFixture() *graph.Graph {
	b := graph.NewBuilder(10)
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			b.AddEdge(graph.Node(i), graph.Node(j))
			b.AddEdge(graph.Node(i+5), graph.Node(j+5))
		}
	}
	return b.Build()
}

func TestOpenDurableFreshRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	g := durableFixture()
	e, info, err := OpenDurable(g, wal.Options{Dir: dir, Policy: wal.SyncAlways}, Options{})
	if err != nil {
		t.Fatalf("OpenDurable fresh: %v", err)
	}
	if !info.FreshStart || info.RecoveredEpoch != 0 {
		t.Fatalf("fresh open reported %+v", info)
	}
	// The seed checkpoint makes a crash-before-first-checkpoint window
	// impossible.
	if ep, ok := e.wal.LastCheckpoint(); !ok || ep != 0 {
		t.Fatalf("seed checkpoint missing: %d,%v", ep, ok)
	}

	// Mutate across a few epochs: bridge the clusters, add a node, cut
	// the bridge again, change a weight.
	var b Batch
	b.AddEdge(4, 5)
	b.AddEdge(0, 10)
	if _, err := e.Apply(b); err != nil {
		t.Fatal(err)
	}
	b.Reset()
	b.RemoveEdge(4, 5)
	if _, err := e.Apply(b); err != nil {
		t.Fatal(err)
	}
	b.Reset()
	b.SetWeight(1, 2, 2.5)
	if _, err := e.Apply(b); err != nil {
		t.Fatal(err)
	}
	if e.Epoch() != 3 {
		t.Fatalf("epoch = %d, want 3", e.Epoch())
	}
	if ep, ok := e.DurableEpoch(); !ok || ep != 3 {
		t.Fatalf("durable epoch = %d,%v, want 3 (SyncAlways)", ep, ok)
	}
	want := e.EncodeState(nil)
	res, err := e.Search(context.Background(), Query{Nodes: []graph.Node{0}})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	// Restart with a nil graph: the durable state is authoritative.
	e2, info2, err := OpenDurable(nil, wal.Options{Dir: dir, Policy: wal.SyncAlways}, Options{})
	if err != nil {
		t.Fatalf("OpenDurable restart: %v", err)
	}
	defer e2.CloseWAL()
	if info2.FreshStart {
		t.Fatal("restart reported a fresh start")
	}
	if info2.RecoveredEpoch != 3 || info2.CheckpointEpoch != 0 || info2.RecordsReplayed != 3 {
		t.Fatalf("restart recovered %+v", info2)
	}
	if ri, ok := e2.Recovery(); !ok || ri != info2 {
		t.Fatalf("Recovery() = %+v,%v", ri, ok)
	}
	got := e2.EncodeState(nil)
	if !bytes.Equal(got, want) {
		t.Fatal("recovered state is not bit-identical to the pre-restart state")
	}
	res2, err := e2.Search(context.Background(), Query{Nodes: []graph.Node{0}})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Score != res.Score || len(res2.Community) != len(res.Community) {
		t.Fatalf("recovered engine answers differently: %v vs %v", res2, res)
	}

	// Appends continue where the log stopped.
	b.Reset()
	b.AddEdge(4, 5)
	st, err := e2.Apply(b)
	if err != nil {
		t.Fatal(err)
	}
	if st.Epoch != 4 {
		t.Fatalf("post-recovery epoch = %d, want 4", st.Epoch)
	}
}

func TestApplyFailsWhenWALAppendFails(t *testing.T) {
	dir := t.TempDir()
	e, _, err := OpenDurable(durableFixture(), wal.Options{Dir: dir, Policy: wal.SyncAlways}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.CloseWAL()

	injected := errors.New("disk full")
	defer faultinject.Reset()
	faultinject.Set(faultinject.WALAppend, faultinject.Injection{Err: injected})
	var b Batch
	b.AddEdge(4, 5)
	if _, err := e.Apply(b); !errors.Is(err, injected) {
		t.Fatalf("Apply under append failure: %v", err)
	}
	// Nothing was published: the engine still serves the pre-batch epoch
	// and the pre-batch graph.
	if e.Epoch() != 0 {
		t.Fatalf("failed Apply published epoch %d", e.Epoch())
	}
	if _, err := e.Search(context.Background(), Query{Nodes: []graph.Node{0, 5}}); err == nil {
		t.Fatal("failed Apply leaked the bridged graph to queries")
	}
	// A plain append error (not a torn write) is retryable: the epoch was
	// not consumed.
	faultinject.Reset()
	st, err := e.Apply(b)
	if err != nil {
		t.Fatalf("retry after cleared failure: %v", err)
	}
	if st.Epoch != 1 {
		t.Fatalf("retry produced epoch %d, want 1", st.Epoch)
	}
}

func TestCheckpointFailureKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	e, _, err := OpenDurable(durableFixture(), wal.Options{Dir: dir, Policy: wal.SyncAlways}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.CloseWAL()
	var b Batch
	b.AddEdge(4, 5)
	if _, err := e.Apply(b); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Reset()
	faultinject.Set(faultinject.CheckpointWrite, faultinject.Injection{})
	if _, err := e.Checkpoint(); err == nil {
		t.Fatal("checkpoint under injected failure succeeded")
	}
	if ep, ok := e.wal.LastCheckpoint(); !ok || ep != 0 {
		t.Fatalf("failed checkpoint moved LastCheckpoint to %d,%v", ep, ok)
	}
	faultinject.Reset()
	ep, err := e.Checkpoint()
	if err != nil || ep != 1 {
		t.Fatalf("checkpoint retry: %d, %v", ep, err)
	}
}

func TestReplayRefusesTamperedStamps(t *testing.T) {
	dir := t.TempDir()
	e, _, err := OpenDurable(durableFixture(), wal.Options{Dir: dir, Policy: wal.SyncAlways}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	// Append a record whose component stamps do not match what replaying
	// its ops produces — the determinism oracle must refuse it.
	lg, _, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	rec := wal.Record{
		Epoch:  1,
		Stamps: []wal.ComponentStamp{{Key: 999, Ver: 1}},
		Ops:    []graph.Delta{{Op: graph.DeltaAddEdge, U: 4, V: 5, W: 1}},
	}
	if err := lg.Append(rec); err != nil {
		t.Fatal(err)
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	_, _, err = OpenDurable(nil, wal.Options{Dir: dir, Policy: wal.SyncAlways}, Options{})
	if err == nil || !strings.Contains(err.Error(), "replay diverged") {
		t.Fatalf("tampered stamps recovered cleanly: %v", err)
	}
}

func TestRecordsWithoutCheckpointRefused(t *testing.T) {
	dir := t.TempDir()
	lg, _, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	rec := wal.Record{Epoch: 1, Ops: []graph.Delta{{Op: graph.DeltaAddEdge, U: 0, V: 1, W: 1}}}
	if err := lg.Append(rec); err != nil {
		t.Fatal(err)
	}
	lg.Close()
	if _, _, err := OpenDurable(nil, wal.Options{Dir: dir}, Options{}); err == nil {
		t.Fatal("records with no base checkpoint recovered cleanly")
	}
}

func TestPeriodicCheckpointTriggers(t *testing.T) {
	dir := t.TempDir()
	e, _, err := OpenDurable(durableFixture(), wal.Options{Dir: dir, Policy: wal.SyncAlways}, Options{CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.CloseWAL()
	var b Batch
	for i := 0; i < 4; i++ {
		b.Reset()
		b.SetWeight(0, 1, float64(i)+2)
		if _, err := e.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	// The trigger is asynchronous; poll for it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if ep, ok := e.wal.LastCheckpoint(); ok && ep >= 2 {
			break
		}
		if time.Now().After(deadline) {
			ep, _ := e.wal.LastCheckpoint()
			t.Fatalf("periodic checkpoint never advanced past %d", ep)
		}
		time.Sleep(time.Millisecond)
	}
	st := e.Stats()
	if st.LastCheckpoint < 2 || st.DurableEpoch != 4 {
		t.Fatalf("stats report last-checkpoint=%d durable=%d", st.LastCheckpoint, st.DurableEpoch)
	}
}

// TestApplyRejectsBadWeights: a batch staged in code with a NaN, infinite
// or negative weight is refused by Apply itself — the parsers are not the
// only way in. Nothing is merged, logged or published, the epoch and the
// log's appended epoch stay put, and a restart recovers the same bytes
// (one such weight, once logged, made w_G NaN and every later query of
// the component a failure across restarts).
func TestApplyRejectsBadWeights(t *testing.T) {
	dir := t.TempDir()
	e, _, err := OpenDurable(durableFixture(), wal.Options{Dir: dir, Policy: wal.SyncAlways}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var ok Batch
	ok.SetWeight(0, 1, 2.5)
	if _, err := e.Apply(ok); err != nil {
		t.Fatal(err)
	}
	want := e.EncodeState(nil)
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		var b Batch
		b.AddEdge(4, 5) // a valid op must not slip through beside the bad one
		b.SetWeight(1, 2, w)
		st, err := e.Apply(b)
		if !errors.Is(err, graph.ErrBadWeight) {
			t.Fatalf("Apply(SetWeight %v) = %+v, %v; want graph.ErrBadWeight", w, st, err)
		}
		if e.Epoch() != 1 || e.wal.AppendedEpoch() != 1 {
			t.Fatalf("after rejected weight %v: epoch %d, appended %d; want 1, 1", w, e.Epoch(), e.wal.AppendedEpoch())
		}
	}
	if !bytes.Equal(e.EncodeState(nil), want) {
		t.Fatal("a rejected batch changed the served state")
	}
	if res, err := e.Search(context.Background(), Query{Nodes: []graph.Node{1}}); err != nil || math.IsNaN(res.Score) {
		t.Fatalf("query after rejected batches: %+v, %v", res, err)
	}
	if err := e.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	e2, info, err := OpenDurable(nil, wal.Options{Dir: dir, Policy: wal.SyncAlways}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.CloseWAL()
	if info.RecoveredEpoch != 1 || info.RecordsReplayed != 1 || !bytes.Equal(e2.EncodeState(nil), want) {
		t.Fatalf("recovery = %+v, want epoch 1 from one record and the pre-rejection bytes", info)
	}
}
