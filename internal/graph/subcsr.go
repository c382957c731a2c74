package graph

import "sync"

// SubCSR is a query-scoped compact snapshot: the induced subgraph of one
// member set (typically a connected component) relabelled into dense local
// ids 0..k-1 and packed into flat arrays of its own, with a mapping back
// to the source snapshot's ids. It is the form the kernels read: a
// snapshot's pages are only ever read to fill one. Peeling a 50-node
// community on a 10M-node graph over the parent CSR would touch Θ(n)
// scratch per query; over a SubCSR every traversal, articulation sweep,
// and candidate scan costs O(k).
//
// The relabelling is monotonic (local order == source order), so the
// packed local adjacency stays sorted and every order-sensitive float
// accumulation — the internal edge weight w_C, the node-weight sum d_S,
// each k_{v,S} neighbor sum — visits exactly the terms the parent-CSR code
// visited, in the same order. Scores computed on a SubCSR are therefore
// bit-identical to scores computed on the parent (the differential tests
// in internal/dmcs prove this end to end).
//
// The embedded arrays' TotalWeight is the PARENT graph's w_G, not the
// member set's internal weight: modularity objectives normalize by the
// whole graph even when the search is confined to one component. The
// member set's own aggregates are exposed as InternalWeight (w_C) and
// MemberWeightSum (d_S at full membership); WeightedDegree returns the
// node's weighted degree in the parent graph.
type SubCSR struct {
	flatCSR
	global []Node  // local -> source id; nil means identity (sub == source)
	compW  float64 // internal edge weight of the member set (w_C)
	compD  float64 // sum of member node weights (d_S at full membership)
}

// GlobalOf maps a local node id back to the source snapshot's id.
func (s *SubCSR) GlobalOf(u Node) Node {
	if s.global == nil {
		return u
	}
	return s.global[u]
}

// Globals returns the local->source id table (ascending; nil when the sub
// spans the whole source snapshot, in which case ids coincide). Do not
// modify.
func (s *SubCSR) Globals() []Node { return s.global }

// LocalOf maps a source-snapshot id to its local id, reporting false when
// the node is not a member. O(log k) via binary search over the sorted id
// table; O(1) for identity subs.
func (s *SubCSR) LocalOf(g Node) (Node, bool) {
	if s.global == nil {
		if int(g) >= s.NumNodes() || g < 0 {
			return 0, false
		}
		return g, true
	}
	lo, hi := 0, len(s.global)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.global[mid] < g {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s.global) && s.global[lo] == g {
		return Node(lo), true
	}
	return 0, false
}

// InternalWeight returns w_C of the member set — the total weight of
// edges with both endpoints inside it, accumulated in the canonical
// member-ascending, neighbor-ascending order.
func (s *SubCSR) InternalWeight() float64 { return s.compW }

// MemberWeightSum returns d_S at full membership: the sum of member node
// weights (parent-graph weighted degrees), accumulated in ascending
// member order.
func (s *SubCSR) MemberWeightSum() float64 { return s.compD }

// relabelPool lends NewSubCSR its source-id -> local-id table, so a lazy
// sub build allocates component-sized memory, not two |G|-sized tables.
var relabelPool = sync.Pool{New: func() any { return new(relabel) }}

// NewSubCSR extracts the induced subgraph of members (sorted ascending,
// duplicate-free) from c into a freshly allocated SubCSR. Neighbors
// outside the member set are dropped, so the member set need not be
// component-closed. Long-lived callers that serve many queries (the
// engine's snapshot) build one per component and share it; per-query
// extraction goes through Arena.ExtractSub instead, which reuses buffers.
func NewSubCSR(c *CSR, members []Node) *SubCSR {
	r := relabelPool.Get().(*relabel)
	defer relabelPool.Put(r)
	dst := &SubCSR{}
	extractSub(dst, &subStorage{}, c, members, r)
	dst.global = append([]Node(nil), members...)
	return dst
}

// NewSubCSRAt is NewSubCSR with the normalization weight pinned: the
// returned sub scores against wG instead of c.TotalWeight(). Callers that
// version components independently use it to rebuild a carried
// component's sub on a later snapshot while keeping its answers
// bit-identical to the version the component was stamped at — the member
// adjacency is unchanged by construction (see UpdateComponents' carried
// contract) and wG freezes the only global term the objectives consume.
func NewSubCSRAt(c *CSR, members []Node, wG float64) *SubCSR {
	dst := NewSubCSR(c, members)
	dst.totalW = wG
	return dst
}

// WrapCSR returns the identity SubCSR over the whole snapshot: no
// relabelling, w_C = w_G. A Contiguous snapshot lends its own arrays, so
// single-component graphs use the query-scoped search path without
// copying anything; a merged one is packed first (callers that would
// rather extract it like any other component check Contiguous).
func WrapCSR(c *CSR) *SubCSR {
	s := &SubCSR{}
	s.wrap(c)
	return s
}

// wrap makes s the identity sub over c's contiguous form.
func (s *SubCSR) wrap(c *CSR) {
	*s = SubCSR{flatCSR: *c.flatten(), compW: c.totalW}
	for _, d := range s.wdeg {
		s.compD += d
	}
}

// subStorage owns the backing slices a SubCSR header points into when the
// sub was extracted (rather than wrapped). Arenas keep two of these so
// extraction reuses buffers across queries; NewSubCSR uses a throwaway.
type subStorage struct {
	offsets []int32
	targets []Node
	weights []float64
	wdeg    []float64
	global  []Node
}

// extractSub builds the compact relabelled arrays of members into dst,
// backed by store's slices (grown as needed), reading src's pages row by
// row. It consumes one epoch of r for the source-id -> local-id map;
// neighbors outside members are dropped. The caller owns dst.global.
func extractSub(dst *SubCSR, store *subStorage, src *CSR, members []Node, r *relabel) {
	r.BeginEpoch(src.NumNodes())
	for i, g := range members {
		r.Mark(g, int32(i))
	}
	table, tag, epoch := r.table, r.tag, r.epoch
	k := len(members)
	degSum := 0
	for _, g := range members {
		degSum += src.Degree(g)
	}
	store.offsets = growInt32(store.offsets, k+1)
	store.targets = growNodes(store.targets, degSum)
	store.wdeg = growFloat64(store.wdeg, k)
	weighted := src.weighted
	if weighted {
		store.weights = growFloat64(store.weights, degSum)
	}

	var compW, compD float64
	pos := 0
	for i, g := range members {
		store.offsets[i] = int32(pos)
		pg, row := &src.pages[g>>pageShift], g&pageMask // one page lookup per row
		lo, hi := pg.offsets[row], pg.offsets[row+1]
		d := pg.wdeg[row]
		store.wdeg[i] = d
		compD += d
		adj := pg.targets[lo:hi]
		if weighted {
			ws := pg.weights[lo:hi]
			for j, w := range adj {
				if tag[w] != epoch {
					continue
				}
				lw := table[w]
				store.targets[pos] = Node(lw)
				wt := ws[j]
				store.weights[pos] = wt
				// u < w in local ids iff u < w in source ids (monotonic
				// relabelling), so this is the NewCSRViewOf accumulation
				// order exactly.
				if int32(i) < lw {
					compW += wt
				}
				pos++
			}
		} else {
			for _, w := range adj {
				if tag[w] != epoch {
					continue
				}
				store.targets[pos] = Node(table[w])
				pos++
			}
		}
	}
	store.offsets[k] = int32(pos)

	dst.offsets = store.offsets[:k+1]
	dst.targets = store.targets[:pos]
	dst.wdeg = store.wdeg[:k]
	if weighted {
		dst.weights = store.weights[:pos]
	} else {
		dst.weights = nil
		compW = float64(pos / 2)
	}
	dst.totalW = src.totalW // objectives normalize by the parent graph
	dst.compW = compW
	dst.compD = compD
}

func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growNodes(s []Node, n int) []Node {
	if cap(s) < n {
		return make([]Node, n)
	}
	return s[:n]
}

func growFloat64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}
