package engine

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"

	"dmcs/internal/dmcs"
	"dmcs/internal/graph"
)

// ErrNodeOutOfRange is returned for query nodes outside [0, NumNodes).
var ErrNodeOutOfRange = errors.New("engine: query node out of range")

// Snapshot is the immutable, read-optimized view of one graph version
// that every query served by an Engine runs against: the packed CSR
// (with the weighted-degree and total-weight aggregates the modularity
// formulas need) and the connected-component partition, so admitting a
// query costs O(|Q|). Snapshots are safe for concurrent readers; nothing
// visible to them is ever mutated after construction. Engine.Apply never
// touches an existing snapshot either — it builds the next one and swaps
// an atomic pointer, so queries that admitted against an older version
// drain on it undisturbed.
//
// Each snapshot carries an epoch — 0 at construction, incremented by
// every applied mutation batch — plus a component-version vector: every
// component has a stable identity (ComponentKey, never reused across the
// engine's lifetime) and a version (ComponentVersion, the epoch at which
// the component last changed). An Apply advances the versions only of the
// components it actually touched; an untouched component keeps its
// identity and version across the swap, so everything keyed by
// (identity, version) — cached results, in-flight singleflights, the
// per-component sub-CSR — stays valid and warm. A component's version
// pins its full scoring context: the member adjacency AND the
// normalization weight w_G the modularity objectives divide by, frozen at
// the stamping epoch. A served answer is therefore always the exact
// serial-reference answer for the graph as of that component's version.
// (Consequence, by design: on a multi-component graph, churn in one
// component does not shift the normalization term of answers served for
// other, untouched components — their answers stay bit-stable until the
// component itself changes.)
//
// Per component the snapshot also caches a compact sub-CSR (the
// component's adjacency relabelled into dense 0..k-1 ids), built lazily
// on the component's first query and shared by every later one, so a
// query against a small component of a huge graph touches only
// component-sized memory end to end. A component spanning the whole graph
// wraps the main CSR instead of copying it while that is still the
// contiguous pack it was built as (a merged one is a page table, and its
// component is extracted like any other). Apply carries an
// already-built sub-CSR forward to the successor snapshot when the
// component is untouched; a carried component whose sub was never built
// rebuilds it lazily against the new CSR with its frozen w_G (the member
// adjacency is bit-identical by the carried contract, so the answers are
// too).
type Snapshot struct {
	csr    *graph.CSR
	compID []int32        // node id -> component id
	comps  [][]graph.Node // component id -> sorted member list
	epoch  uint64         // graph version; 0 at construction, +1 per Apply

	compKey     []uint64    // component id -> stable identity, preserved across Apply while untouched
	compVer     []uint64    // component id -> version: the epoch the component last changed
	compWG      []float64   // component id -> normalization weight w_G frozen at compVer
	compHist    [][]compRef // component id -> superseded ancestor versions, newest first
	nextCompKey uint64      // next unissued component identity

	subOnce  []sync.Once   // per-component lazy sub-CSR construction
	subBuilt []atomic.Bool // set after subOnce[id] completed; lets Apply carry built subs race-free
	//dmcs:lazyinit
	subs []*graph.SubCSR // component id -> compact sub-CSR
}

// compRef names one superseded version in a component's ancestry: the
// identity and version a now-replaced component was stamped with.
// LookupStale probes these, newest first, to serve bounded-staleness
// answers for a component that churned.
type compRef struct {
	key, ver uint64
}

// NewSnapshot builds the read-optimized snapshot of g at epoch 0. Nothing
// is packed or flooded here: the snapshot shares g's packed arrays and
// g's memoised component partition, which are immutable on both sides —
// Apply builds successors by copy and never writes into a predecessor.
func NewSnapshot(g *graph.Graph) *Snapshot {
	compID, comps := g.Components()
	return newSnapshotParts(graph.NewCSR(g), compID, comps, 0)
}

// newSnapshotParts assembles a snapshot from an already-built CSR and
// component partition, stamping every component fresh at epoch — the
// construction path of NewSnapshot. Apply-produced successors go through
// newSnapshotFrom instead, which preserves untouched components' stamps.
func newSnapshotParts(csr *graph.CSR, compID []int32, comps [][]graph.Node, epoch uint64) *Snapshot {
	n := len(comps)
	s := &Snapshot{
		csr:      csr,
		compID:   compID,
		comps:    comps,
		epoch:    epoch,
		compKey:  make([]uint64, n),
		compVer:  make([]uint64, n),
		compWG:   make([]float64, n),
		compHist: make([][]compRef, n),

		nextCompKey: uint64(n),
		subOnce:     make([]sync.Once, n),
		subBuilt:    make([]atomic.Bool, n),
		subs:        make([]*graph.SubCSR, n),
	}
	for i := range comps {
		s.compKey[i] = uint64(i)
		s.compVer[i] = epoch
		s.compWG[i] = csr.TotalWeight()
	}
	return s
}

// newSnapshotFrom builds the successor of prev after a merge: component
// id -> old id correspondence comes from carried (see
// graph.UpdateComponents). A carried component keeps its identity,
// version, frozen w_G, staleness ancestry, and — when already built — its
// sub-CSR. Every other component is stamped fresh: a new identity, the
// new epoch as its version, the new graph's total weight as its w_G, and
// an ancestry assembled from the old components its members came from
// (bounded by staleRetention; empty when retention is off). Returns the
// snapshot plus how many old components were invalidated (superseded by a
// touched successor) and how many were retained (carried).
func newSnapshotFrom(prev *Snapshot, csr *graph.CSR, compID []int32, comps [][]graph.Node, carried []int32, epoch uint64, staleRetention int) (s *Snapshot, invalidated, retained int) {
	n := len(comps)
	s = &Snapshot{
		csr:      csr,
		compID:   compID,
		comps:    comps,
		epoch:    epoch,
		compKey:  make([]uint64, n),
		compVer:  make([]uint64, n),
		compWG:   make([]float64, n),
		compHist: make([][]compRef, n),

		nextCompKey: prev.nextCompKey,
		subOnce:     make([]sync.Once, n),
		subBuilt:    make([]atomic.Bool, n),
		subs:        make([]*graph.SubCSR, n),
	}
	// Which old components survive verbatim; the rest are superseded.
	oldCarried := make([]bool, len(prev.comps))
	for id := 0; id < n; id++ {
		from := carried[id]
		if from < 0 {
			continue
		}
		oldCarried[from] = true
		s.compKey[id] = prev.compKey[from]
		s.compVer[id] = prev.compVer[from]
		s.compWG[id] = prev.compWG[from]
		s.compHist[id] = prev.compHist[from]
		// Carry a built sub-CSR forward. subBuilt's acquire/release pair
		// makes the read race-free against prev's concurrent lazy builders:
		// Load()==true happens-after some SubCSR call's completed Do, which
		// happens-after the build. The old sub stays valid on the new
		// snapshot — same members, same adjacency, frozen w_G — and
		// pre-completing the Once here publishes it with the usual
		// happens-before for later readers.
		if prev.subBuilt[from].Load() {
			sub := prev.subs[from]
			s.subOnce[id].Do(func() { s.subs[id] = sub })
			s.subBuilt[id].Store(true)
		}
	}
	for r := range oldCarried {
		if !oldCarried[r] {
			invalidated++
		}
	}
	for _, from := range carried {
		if from >= 0 {
			retained++
		}
	}
	// Fresh components: new identity, stamped at the new epoch, ancestry
	// collected from the distinct old components their members belonged to.
	for id := 0; id < n; id++ {
		if carried[id] >= 0 {
			continue
		}
		s.compKey[id] = s.nextCompKey
		s.nextCompKey++
		s.compVer[id] = epoch
		s.compWG[id] = csr.TotalWeight()
		if staleRetention > 0 {
			s.compHist[id] = ancestryOf(prev, comps[id], staleRetention)
		}
	}
	return s, invalidated, retained
}

// ancestryOf assembles the stale-probe list for a fresh component whose
// members came (possibly) from several old components: each distinct old
// parent contributes its own (identity, version) plus its recorded
// ancestry. Entries are ordered newest-version first and capped at
// retention.
func ancestryOf(prev *Snapshot, members []graph.Node, retention int) []compRef {
	var refs []compRef
	seen := make(map[uint64]bool, 2)
	for _, u := range members {
		if int(u) >= len(prev.compID) {
			continue // node did not exist before the merge
		}
		from := prev.compID[u]
		if seen[prev.compKey[from]] {
			continue
		}
		seen[prev.compKey[from]] = true
		refs = append(refs, compRef{key: prev.compKey[from], ver: prev.compVer[from]})
		refs = append(refs, prev.compHist[from]...)
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i].ver > refs[j].ver })
	if len(refs) > retention {
		refs = refs[:retention]
	}
	return refs
}

// CSR returns the packed adjacency snapshot.
func (s *Snapshot) CSR() *graph.CSR { return s.csr }

// Epoch returns the snapshot's graph version: 0 for the engine's initial
// snapshot, incremented by one per applied mutation batch.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// NumComponents returns the number of connected components.
func (s *Snapshot) NumComponents() int { return len(s.comps) }

// ComponentID validates a query against the partition and returns the
// index of the component containing all its nodes — the public form of
// the admission check. It fails with dmcs.ErrEmptyQuery,
// ErrNodeOutOfRange, or dmcs.ErrDisconnected.
func (s *Snapshot) ComponentID(q []graph.Node) (int32, error) {
	return s.componentIndex(q)
}

// ComponentMembers returns component id's sorted member list. The slice
// is shared across queries and must not be modified.
func (s *Snapshot) ComponentMembers(id int32) []graph.Node { return s.comps[id] }

// ComponentKey returns component id's stable identity: assigned once,
// preserved across Apply while the component is untouched, and never
// reused after the component churns.
func (s *Snapshot) ComponentKey(id int32) uint64 { return s.compKey[id] }

// ComponentVersion returns component id's version — the epoch at which
// the component last changed. An Apply that does not touch the component
// leaves it unchanged, so results computed at this version stay servable.
func (s *Snapshot) ComponentVersion(id int32) uint64 { return s.compVer[id] }

// Component validates a query against the partition and returns the sorted
// connected component containing all its nodes. The returned slice is
// shared across queries and must not be modified. It fails with
// dmcs.ErrEmptyQuery, ErrNodeOutOfRange, or dmcs.ErrDisconnected.
func (s *Snapshot) Component(q []graph.Node) ([]graph.Node, error) {
	id, err := s.componentIndex(q)
	if err != nil {
		return nil, err
	}
	return s.comps[id], nil
}

// componentIndex is Component returning the partition index instead of
// the member list — the allocation-free admission check of the query
// path.
func (s *Snapshot) componentIndex(q []graph.Node) (int32, error) {
	if len(q) == 0 {
		return 0, dmcs.ErrEmptyQuery
	}
	for _, u := range q {
		if u < 0 || int(u) >= len(s.compID) {
			return 0, ErrNodeOutOfRange
		}
	}
	id := s.compID[q[0]]
	for _, u := range q[1:] {
		if s.compID[u] != id {
			return 0, dmcs.ErrDisconnected
		}
	}
	return id, nil
}

// SubCSR returns the compact sub-CSR of component id, building it on
// first use (Apply may have pre-completed the build by carrying the
// previous version's sub forward). The build pins the component's frozen
// normalization weight, so a carried component rebuilt against a newer
// CSR still scores exactly as it did at its stamped version. Safe for
// concurrent callers; the result is immutable and shared.
func (s *Snapshot) SubCSR(id int32) *graph.SubCSR {
	s.subOnce[id].Do(func() {
		if len(s.comps[id]) == s.csr.NumNodes() && s.compWG[id] == s.csr.TotalWeight() && s.csr.Contiguous() {
			s.subs[id] = graph.WrapCSR(s.csr)
		} else {
			s.subs[id] = graph.NewSubCSRAt(s.csr, s.comps[id], s.compWG[id])
		}
	})
	if !s.subBuilt[id].Load() {
		s.subBuilt[id].Store(true)
	}
	return s.subs[id]
}
