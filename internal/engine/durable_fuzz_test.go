package engine

import (
	"bytes"
	"testing"

	"dmcs/internal/dmcsref"
	"dmcs/internal/dmcsref/refstate"
	"dmcs/internal/graph"
	"dmcs/internal/wal"
)

// FuzzCheckpointRoundTrip drives a durable engine with a fuzzed delta
// stream and asserts the checkpoint pipeline is lossless end to end: the
// live state is the model's (internal/dmcsref), the canonical state
// encoding decodes back to an identical image, and an engine recovered
// from the persisted checkpoint + log is bit-identical to the original.
func FuzzCheckpointRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 1, 2, 3, 2, 3, 4})
	f.Add([]byte{3, 9, 0, 1, 4, 200, 2, 1, 2, 0, 1, 2})
	f.Add([]byte{1, 5, 6, 100, 1, 6, 7, 0, 2, 5, 6, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Decode the fuzz bytes as a stream of small deltas, 4 bytes per
		// op: kind, u, v, weight-ish.
		var batches [][]dmcsref.Op
		var cur []dmcsref.Op
		for i := 0; i+3 < len(data); i += 4 {
			op := dmcsref.Op{U: int(data[i+1] % 16), V: int(data[i+2] % 16), W: float64(data[i+3]) / 8}
			if k := data[i] % 5; k < 4 {
				op.Kind = [...]dmcsref.OpKind{dmcsref.AddEdge, dmcsref.SetWeight, dmcsref.RemoveEdge, dmcsref.AddNode}[k]
				cur = append(cur, op)
			} else { // batch boundary
				batches, cur = append(batches, cur), nil
			}
		}
		batches = append(batches, cur)

		dir := t.TempDir()
		seed := durableFixture()
		var edges []dmcsref.Edge
		graph.NewCSR(seed).Edges(func(u, v graph.Node, w float64) bool {
			edges = append(edges, dmcsref.Edge{U: int(u), V: int(v), W: w})
			return true
		})
		m := dmcsref.NewModel(seed.NumNodes(), edges)
		e, _, err := OpenDurable(seed, wal.Options{Dir: dir, Policy: wal.SyncOff}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, ops := range batches {
			if err := applyBoth(e, m, ops); err != nil {
				t.Fatal(err)
			}
		}

		enc := e.EncodeState(nil)
		if err := refstate.Check(m.CheckState, enc); err != nil {
			t.Fatalf("durable engine state diverged from the model: %v", err)
		}
		// The canonical encoding decodes and re-encodes byte-identically.
		cp, err := wal.DecodeCheckpoint(enc)
		if err != nil {
			t.Fatalf("DecodeCheckpoint of live state: %v", err)
		}
		if !bytes.Equal(wal.AppendCheckpoint(nil, cp), enc) {
			t.Fatal("checkpoint encoding did not round-trip byte-identically")
		}
		// Persist, recover, compare: restart must land on the same bits,
		// whether it replays from the seed checkpoint or loads the fresh one.
		if _, err := e.Checkpoint(); err != nil {
			t.Fatalf("checkpoint: %v", err)
		}
		if err := e.CloseWAL(); err != nil {
			t.Fatal(err)
		}
		e2, _, err := OpenDurable(nil, wal.Options{Dir: dir, Policy: wal.SyncOff}, Options{})
		if err != nil {
			t.Fatalf("recovery: %v", err)
		}
		defer e2.CloseWAL()
		if !bytes.Equal(e2.EncodeState(nil), enc) {
			t.Fatal("recovered engine state diverged")
		}
	})
}
