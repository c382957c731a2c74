package graph

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Binary codecs for the two durable forms of the graph: a Delta batch
// (the write-ahead log's record body) and a packed CSR (the checkpoint's
// graph image). Both encodings are deliberately bit-faithful rather than
// merely value-faithful — weights, weighted degrees, and the total-weight
// aggregate round-trip as their exact float64 bit patterns, because the
// recovery contract is "the recovered snapshot bit-matches a serial
// reference" and float addition order already makes those aggregates
// sensitive to provenance.
//
// Compatibility rule (see CONTRIBUTING.md): decoders reject what they do
// not understand instead of guessing. New Delta op kinds or CSR layouts
// get a new code point / version byte; existing ones are frozen.

// ErrCodec is wrapped by every decode failure in this file, so callers
// (the WAL's recovery scan, the fuzzers) can classify "corrupt bytes"
// without matching message strings.
var ErrCodec = errors.New("graph: malformed encoding")

// csrCodecVersion is the CSR encoding's version byte. Bump when the
// layout changes; DecodeCSR refuses versions it does not know.
const csrCodecVersion = 1

// maxCodecElems caps slice lengths read from untrusted bytes before any
// allocation, so a corrupt length prefix cannot OOM the decoder.
const maxCodecElems = 1 << 31

// AppendDeltas appends a compact binary encoding of ops to dst and
// returns the extended slice. Node ids are zigzag-varint (Delta fields
// are not validated here, and a staged batch may legally carry negative
// ids that MergeCSR will reject later — the log must round-trip them
// verbatim); weights are full float64 bit patterns. Layout per op: one
// op byte, then the operands that op actually has (AddEdge/SetWeight:
// u, v, w; RemoveEdge: u, v; AddNode: u).
//
//dmcs:hotpath
func AppendDeltas(dst []byte, ops []Delta) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ops)))
	for i := range ops {
		op := &ops[i]
		dst = append(dst, byte(op.Op))
		dst = binary.AppendVarint(dst, int64(op.U))
		switch op.Op {
		case DeltaAddEdge, DeltaSetWeight:
			dst = binary.AppendVarint(dst, int64(op.V))
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(op.W))
		case DeltaRemoveEdge:
			dst = binary.AppendVarint(dst, int64(op.V))
		case DeltaAddNode:
			// u only.
		}
	}
	return dst
}

// DecodeDeltas decodes an AppendDeltas encoding from the front of b,
// appending the ops to dst. It returns the extended slice and the number
// of bytes consumed. Unknown op bytes and truncated operands fail with
// an ErrCodec-wrapped error; trailing bytes after the declared op count
// are left for the caller.
func DecodeDeltas(b []byte, dst []Delta) ([]Delta, int, error) {
	n, off := binary.Uvarint(b)
	if off <= 0 {
		return dst, 0, fmt.Errorf("%w: delta count", ErrCodec)
	}
	if n > maxCodecElems {
		return dst, 0, fmt.Errorf("%w: absurd delta count %d", ErrCodec, n)
	}
	for i := uint64(0); i < n; i++ {
		if off >= len(b) {
			return dst, 0, fmt.Errorf("%w: truncated delta %d/%d", ErrCodec, i, n)
		}
		op := DeltaOp(b[off])
		off++
		u, k := binary.Varint(b[off:])
		if k <= 0 {
			return dst, 0, fmt.Errorf("%w: delta %d operand u", ErrCodec, i)
		}
		off += k
		d := Delta{Op: op, U: Node(u)}
		switch op {
		case DeltaAddEdge, DeltaSetWeight:
			v, k := binary.Varint(b[off:])
			if k <= 0 {
				return dst, 0, fmt.Errorf("%w: delta %d operand v", ErrCodec, i)
			}
			off += k
			if off+8 > len(b) {
				return dst, 0, fmt.Errorf("%w: delta %d weight", ErrCodec, i)
			}
			d.V = Node(v)
			d.W = math.Float64frombits(binary.LittleEndian.Uint64(b[off:]))
			off += 8
		case DeltaRemoveEdge:
			v, k := binary.Varint(b[off:])
			if k <= 0 {
				return dst, 0, fmt.Errorf("%w: delta %d operand v", ErrCodec, i)
			}
			off += k
			d.V = Node(v)
		case DeltaAddNode:
			// u only.
		default:
			return dst, 0, fmt.Errorf("%w: unknown delta op %d", ErrCodec, op)
		}
		dst = append(dst, d)
	}
	return dst, off, nil
}

// AppendCSR appends the binary image of c to dst and returns the
// extended slice. All float64 payloads (weights, weighted degrees, the
// total-weight aggregate) are stored as raw bit patterns so DecodeCSR
// reproduces the snapshot bit-for-bit — including the cached aggregates,
// which are NOT recomputed on load precisely because their float addition
// order would have to be re-derived to match.
func AppendCSR(dst []byte, c *CSR) []byte {
	dst = append(dst, csrCodecVersion)
	if c.weighted {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(c.n))
	dst = binary.AppendUvarint(dst, uint64(c.entries))
	// The image is the contiguous layout whatever the pages look like:
	// global offsets are rebuilt from each page's own, then every array is
	// emitted page after page.
	var base int32
	for i := range c.pages {
		offs := c.pages[i].offsets
		for _, o := range offs[:len(offs)-1] {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(base+o-offs[0]))
		}
		base += offs[len(offs)-1] - offs[0]
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(base))
	for i := range c.pages {
		p := &c.pages[i]
		for _, t := range p.targets[p.offsets[0]:p.offsets[len(p.offsets)-1]] {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(t))
		}
	}
	for i := 0; c.weighted && i < len(c.pages); i++ {
		p := &c.pages[i]
		for _, w := range p.weights[p.offsets[0]:p.offsets[len(p.offsets)-1]] {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(w))
		}
	}
	for i := range c.pages {
		for _, w := range c.pages[i].wdeg {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(w))
		}
	}
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(c.totalW))
	return dst
}

// DecodeCSR decodes an AppendCSR image from the front of b, returning
// the snapshot (contiguous, like a Builder's) and the number of bytes
// consumed. The structural invariants every consumer of a CSR assumes are
// re-validated — monotonic offsets bracketing the target array, in-range
// neighbor ids, per-node strictly sorted adjacency with no self-loops —
// so a corrupt checkpoint that survived its CRC by construction (or a fuzzer's
// synthetic one) is rejected here instead of crashing a traversal later.
func DecodeCSR(b []byte) (*CSR, int, error) {
	if len(b) < 2 {
		return nil, 0, fmt.Errorf("%w: csr header", ErrCodec)
	}
	if b[0] != csrCodecVersion {
		return nil, 0, fmt.Errorf("%w: csr version %d (want %d)", ErrCodec, b[0], csrCodecVersion)
	}
	weighted := b[1] == 1
	if !weighted && b[1] != 0 {
		return nil, 0, fmt.Errorf("%w: csr weighted flag %d", ErrCodec, b[1])
	}
	off := 2
	n64, k := binary.Uvarint(b[off:])
	if k <= 0 || n64 > maxCodecElems {
		return nil, 0, fmt.Errorf("%w: csr node count", ErrCodec)
	}
	off += k
	m64, k := binary.Uvarint(b[off:])
	if k <= 0 || m64 > maxCodecElems || m64%2 != 0 {
		return nil, 0, fmt.Errorf("%w: csr target count", ErrCodec)
	}
	off += k
	n, m := int(n64), int(m64)

	need := 4*(n+1) + 4*m + 8*n + 8
	if weighted {
		need += 8 * m
	}
	if len(b)-off < need {
		return nil, 0, fmt.Errorf("%w: csr truncated (%d bytes, need %d)", ErrCodec, len(b)-off, need)
	}

	c := flatCSR{
		offsets: make([]int32, n+1),
		targets: make([]Node, m),
		wdeg:    make([]float64, n),
	}
	for i := range c.offsets {
		c.offsets[i] = int32(binary.LittleEndian.Uint32(b[off:]))
		off += 4
	}
	for i := range c.targets {
		c.targets[i] = Node(binary.LittleEndian.Uint32(b[off:]))
		off += 4
	}
	if weighted {
		c.weights = make([]float64, m)
		for i := range c.weights {
			c.weights[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[off:]))
			off += 8
		}
	}
	for i := range c.wdeg {
		c.wdeg[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[off:]))
		off += 8
	}
	c.totalW = math.Float64frombits(binary.LittleEndian.Uint64(b[off:]))
	off += 8

	if c.offsets[0] != 0 || c.offsets[n] != int32(m) {
		return nil, 0, fmt.Errorf("%w: csr offsets do not bracket targets", ErrCodec)
	}
	for u := 0; u < n; u++ {
		if c.offsets[u] > c.offsets[u+1] {
			return nil, 0, fmt.Errorf("%w: csr offsets not monotonic at node %d", ErrCodec, u)
		}
		prev := Node(-1)
		for _, v := range c.targets[c.offsets[u]:c.offsets[u+1]] {
			if v < 0 || int(v) >= n {
				return nil, 0, fmt.Errorf("%w: csr neighbor %d of node %d out of range", ErrCodec, v, u)
			}
			if int(v) == u {
				return nil, 0, fmt.Errorf("%w: csr self-loop at node %d", ErrCodec, u)
			}
			if v <= prev {
				return nil, 0, fmt.Errorf("%w: csr adjacency of node %d not strictly sorted", ErrCodec, u)
			}
			prev = v
		}
	}
	return newContiguousCSR(c), off, nil
}
