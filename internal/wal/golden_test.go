package wal_test

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dmcs/internal/engine"
	"dmcs/internal/graph"
	"dmcs/internal/wal"
)

// Golden durable files: testdata/golden-v1/<fixture>/ holds one DMCSCKP1
// seed checkpoint, one WAL segment and the SHA-256 of Engine.EncodeState
// after the log was written. They were produced once, by the commit
// CHANGES.md names, and every later build must recover them to the same
// digest: an in-memory layout change (paged rows, a new partition form)
// that needed a format bump or changed one recovered bit fails here.
//
// -write-golden regenerates the files from the running build. That is
// only legitimate together with a format version bump; otherwise it
// replaces the proof with a tautology.
var writeGolden = flag.Bool("write-golden", false, "regenerate testdata/golden-v1 from this build")

const goldenRoot = "testdata/golden-v1"

// goldenFixture is a five-component graph on 250 nodes (rings of 50 with
// a chord every 7), so that growth in the log crosses node id 256.
func goldenFixture(weighted bool) *graph.Graph {
	b := graph.NewBuilder(250)
	for c := 0; c < 5; c++ {
		off := c * 50
		for i := 0; i < 50; i++ {
			u := graph.Node(off + i)
			for _, step := range [2]int{1, 7} {
				v := graph.Node(off + (i+step)%50)
				if weighted {
					b.SetWeight(u, v, 0.25+float64((i*step+c)%11)/8)
				} else {
					b.AddEdge(u, v)
				}
			}
		}
	}
	return b.Build()
}

// goldenBatches is the logged history: adds, deletes, weight updates,
// growth across id 256 (implicit, explicit, and skipping ids), a
// component merge and split, and one batch that normalizes to nothing.
// records is how many of them reach the log.
func goldenBatches(weighted bool) (batches []engine.Batch, records int) {
	w := func(x float64) float64 {
		if weighted {
			return x
		}
		return 1 // keeps the unweighted fixture unweighted until the last batch
	}
	stage := func(fn func(b *engine.Batch)) {
		var b engine.Batch
		fn(&b)
		batches = append(batches, b)
	}
	stage(func(b *engine.Batch) { b.AddEdge(0, 25); b.AddEdge(3, 30) })
	stage(func(b *engine.Batch) { b.RemoveEdge(0, 1) })
	stage(func(b *engine.Batch) { b.SetWeight(10, 11, w(2.5)); b.AddEdge(10, 12) })
	stage(func(b *engine.Batch) { b.AddEdge(49, 50) })                      // merge components 0 and 1
	stage(func(b *engine.Batch) { b.AddEdge(249, 255) })                    // implicit growth to the last row of page 0
	stage(func(b *engine.Batch) { b.AddEdge(255, 256) })                    // first row of page 1
	stage(func(b *engine.Batch) { b.AddEdge(256, 257); b.AddEdge(257, 0) }) // edge across the page boundary
	stage(func(b *engine.Batch) { b.RemoveEdge(0, 1); b.AddEdge(0, 25) })   // no-op: not logged
	stage(func(b *engine.Batch) { b.AddNode(300) })                         // isolated nodes 258..300
	stage(func(b *engine.Batch) { b.SetWeight(299, 300, w(0.125)) })
	stage(func(b *engine.Batch) { b.RemoveEdge(49, 50) }) // split again
	stage(func(b *engine.Batch) { b.RemoveEdge(255, 256); b.RemoveEdge(256, 257); b.RemoveEdge(257, 0) })
	stage(func(b *engine.Batch) { b.AddEdge(100, 150); b.RemoveEdge(100, 101); b.SetWeight(150, 151, w(3)) })
	stage(func(b *engine.Batch) { b.AddEdge(600, 601) }) // growth that skips a whole page of isolated nodes
	stage(func(b *engine.Batch) { b.AddEdge(601, 200); b.AddEdge(300, 200) })
	stage(func(b *engine.Batch) {
		b.RemoveEdge(200, 201)
		b.RemoveEdge(200, 207)
		b.RemoveEdge(249, 200)
		b.RemoveEdge(243, 200)
	})
	stage(func(b *engine.Batch) { b.SetWeight(5, 6, w(1)); b.SetWeight(6, 7, w(0.5)); b.AddEdge(5, 7) })
	stage(func(b *engine.Batch) { b.AddNode(700) })
	stage(func(b *engine.Batch) { b.AddEdge(700, 511); b.AddEdge(512, 511) })
	stage(func(b *engine.Batch) { b.RemoveEdge(600, 601) })
	stage(func(b *engine.Batch) { b.SetWeight(20, 21, 1.75) }) // unweighted -> weighted transition
	return batches, len(batches) - 1
}

func goldenDigest(e *engine.Engine) string {
	sum := sha256.Sum256(e.EncodeState(nil))
	return hex.EncodeToString(sum[:])
}

func writeGoldenDir(t *testing.T, dir string, weighted bool) {
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	e, _, err := engine.OpenDurable(goldenFixture(weighted), wal.Options{Dir: dir, Policy: wal.SyncAlways}, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	batches, _ := goldenBatches(weighted)
	for i, b := range batches {
		if _, err := e.Apply(b); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	digest := goldenDigest(e)
	if err := e.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "state.sha256"), []byte(digest+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverGoldenV1(t *testing.T) {
	for _, fx := range []struct {
		name     string
		weighted bool
	}{{"unweighted", false}, {"weighted", true}} {
		t.Run(fx.name, func(t *testing.T) {
			src := filepath.Join(goldenRoot, fx.name)
			if *writeGolden {
				writeGoldenDir(t, src, fx.weighted)
			}
			want, err := os.ReadFile(filepath.Join(src, "state.sha256"))
			if err != nil {
				t.Fatal(err)
			}
			// Recovery truncates and reopens the segment: work on a copy.
			dir := t.TempDir()
			entries, err := os.ReadDir(src)
			if err != nil {
				t.Fatal(err)
			}
			for _, ent := range entries {
				data, err := os.ReadFile(filepath.Join(src, ent.Name()))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, ent.Name()), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			e, info, err := engine.OpenDurable(nil, wal.Options{Dir: dir, Policy: wal.SyncAlways}, engine.Options{})
			if err != nil {
				t.Fatalf("OpenDurable on golden files: %v", err)
			}
			defer e.CloseWAL()
			_, records := goldenBatches(fx.weighted)
			if info.FreshStart || info.CheckpointEpoch != 0 || info.RecordsReplayed != records || info.TruncatedBytes != 0 {
				t.Fatalf("recovery = %+v, want checkpoint 0 + %d records, nothing truncated", info, records)
			}
			if got := goldenDigest(e); got != strings.TrimSpace(string(want)) {
				t.Fatalf("recovered state digest %s, golden files recorded %s", got, strings.TrimSpace(string(want)))
			}
			// The golden history applied to a fresh in-memory engine by this
			// build must land on the same bytes: replay and Apply agree.
			live := engine.New(goldenFixture(fx.weighted), engine.Options{})
			batches, _ := goldenBatches(fx.weighted)
			for i, b := range batches {
				if _, err := live.Apply(b); err != nil {
					t.Fatalf("batch %d: %v", i, err)
				}
			}
			if got := goldenDigest(live); got != strings.TrimSpace(string(want)) {
				t.Fatalf("live state digest %s, golden files recorded %s", got, strings.TrimSpace(string(want)))
			}
		})
	}
}
