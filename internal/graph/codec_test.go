package graph

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func TestDeltaCodecRoundTrip(t *testing.T) {
	ops := []Delta{
		{Op: DeltaAddEdge, U: 0, V: 7, W: 1},
		{Op: DeltaSetWeight, U: 3, V: 9, W: 2.5},
		{Op: DeltaSetWeight, U: 1, V: 2, W: 0}, // zero weight is a real value
		{Op: DeltaRemoveEdge, U: 4, V: 5},
		{Op: DeltaAddNode, U: 42},
		// Negative ids are invalid for MergeCSR but must round-trip
		// verbatim: the log stores staged batches, not normalized ones.
		{Op: DeltaAddEdge, U: -3, V: -1, W: 1},
		{Op: DeltaSetWeight, U: 6, V: 8, W: math.Inf(1)},
	}
	enc := AppendDeltas(nil, ops)
	got, n, err := DecodeDeltas(enc, nil)
	if err != nil {
		t.Fatalf("DecodeDeltas: %v", err)
	}
	if n != len(enc) {
		t.Fatalf("consumed %d of %d bytes", n, len(enc))
	}
	if !reflect.DeepEqual(got, ops) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, ops)
	}

	// Trailing bytes after the declared count are the caller's problem.
	got2, n2, err := DecodeDeltas(append(enc, 0xde, 0xad), nil)
	if err != nil || n2 != len(enc) || !reflect.DeepEqual(got2, ops) {
		t.Fatalf("trailing bytes changed the decode: n=%d err=%v", n2, err)
	}
}

func TestDeltaCodecEmpty(t *testing.T) {
	enc := AppendDeltas(nil, nil)
	got, n, err := DecodeDeltas(enc, nil)
	if err != nil || n != len(enc) || len(got) != 0 {
		t.Fatalf("empty batch: got %v, n=%d, err=%v", got, n, err)
	}
}

func TestDeltaCodecRejectsCorrupt(t *testing.T) {
	valid := AppendDeltas(nil, []Delta{
		{Op: DeltaAddEdge, U: 1, V: 2, W: 1},
		{Op: DeltaRemoveEdge, U: 3, V: 4},
	})
	// Every strict prefix must fail: there is no valid shorter encoding
	// with the same declared count.
	for cut := 0; cut < len(valid); cut++ {
		if _, _, err := DecodeDeltas(valid[:cut], nil); err == nil {
			t.Fatalf("truncation to %d bytes decoded cleanly", cut)
		} else if !errors.Is(err, ErrCodec) {
			t.Fatalf("truncation to %d bytes: error %v does not wrap ErrCodec", cut, err)
		}
	}
	// Unknown op byte.
	bad := append([]byte(nil), valid...)
	bad[1] = 0xff
	if _, _, err := DecodeDeltas(bad, nil); !errors.Is(err, ErrCodec) {
		t.Fatalf("unknown op byte: err=%v", err)
	}
}

func TestCSRCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, weighted := range []bool{false, true} {
		g := randomDeltaGraph(rng, 40, weighted)
		want := NewCSR(g)
		enc := AppendCSR(nil, want)
		got, n, err := DecodeCSR(enc)
		if err != nil {
			t.Fatalf("weighted=%v DecodeCSR: %v", weighted, err)
		}
		if n != len(enc) {
			t.Fatalf("weighted=%v consumed %d of %d bytes", weighted, n, len(enc))
		}
		csrBitsEqual(t, got, want)

		// Trailing bytes are left for the caller (the checkpoint codec
		// appends the component vectors right after the CSR image).
		got2, n2, err := DecodeCSR(append(enc, 1, 2, 3))
		if err != nil || n2 != len(enc) {
			t.Fatalf("weighted=%v trailing bytes: n=%d err=%v", weighted, n2, err)
		}
		csrBitsEqual(t, got2, want)
	}
}

func TestCSRCodecEmptyGraph(t *testing.T) {
	want := NewCSR(NewBuilder(0).Build())
	enc := AppendCSR(nil, want)
	got, _, err := DecodeCSR(enc)
	if err != nil {
		t.Fatalf("empty graph: %v", err)
	}
	csrBitsEqual(t, got, want)
}

func TestCSRCodecBitExactAggregates(t *testing.T) {
	// Force an aggregate whose value depends on float addition order:
	// decoding must reproduce the stored bits, not recompute the sum.
	b := NewBuilder(4)
	b.SetWeight(0, 1, 0.1)
	b.SetWeight(1, 2, 0.2)
	b.SetWeight(2, 3, 0.3)
	want := NewCSR(b.Build())
	got, _, err := DecodeCSR(AppendCSR(nil, want))
	if err != nil {
		t.Fatal(err)
	}
	csrBitsEqual(t, got, want)
}

func TestCSRCodecRejectsCorrupt(t *testing.T) {
	g := randomDeltaGraph(rand.New(rand.NewSource(11)), 12, true)
	valid := AppendCSR(nil, NewCSR(g))

	check := func(name string, mutate func([]byte) []byte) {
		t.Helper()
		b := mutate(append([]byte(nil), valid...))
		if _, _, err := DecodeCSR(b); err == nil {
			t.Fatalf("%s decoded cleanly", name)
		} else if !errors.Is(err, ErrCodec) {
			t.Fatalf("%s: error %v does not wrap ErrCodec", name, err)
		}
	}
	check("bad version", func(b []byte) []byte { b[0] = 99; return b })
	check("bad weighted flag", func(b []byte) []byte { b[1] = 7; return b })
	check("truncated body", func(b []byte) []byte { return b[:len(b)/2] })
	check("empty", func(b []byte) []byte { return b[:0] })

	// Structural invariants: corrupt a target to a self-loop. The offsets
	// region starts after version, flag and two uvarints; easier to build
	// a tiny graph where byte positions are known.
	tiny := NewBuilder(2)
	tiny.AddEdge(0, 1)
	enc := AppendCSR(nil, NewCSR(tiny.Build()))
	// Layout: ver, flag, uvarint n=2, uvarint m=2, offsets[3]*4, targets[2]*4, ...
	// targets[0] is node 0's neighbor (=1); pointing it at 0 makes a self-loop.
	tgt := 4 + 3*4
	enc[tgt] = 0
	if _, _, err := DecodeCSR(enc); !errors.Is(err, ErrCodec) {
		t.Fatalf("self-loop target: err=%v", err)
	}
}
