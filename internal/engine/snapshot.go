package engine

import (
	"sort"
	"sync"

	"dmcs/internal/dmcs"
	"dmcs/internal/graph"
)

// ErrNodeOutOfRange is returned for query nodes outside [0, NumNodes):
// the serial searches' own sentinel.
var ErrNodeOutOfRange = dmcs.ErrNodeOutOfRange

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
// Each component points at one compVersion record: its stable identity
// (ComponentKey, never reused across the engine's lifetime), its version
// (ComponentVersion, the epoch at which it last changed), the
// normalization weight w_G it was stamped with, its staleness ancestry,
// and its lazily built sub-CSR. The record is immutable once stamped, so
// an Apply carries an untouched component to the successor by copying
// the pointer, and everything keyed by its identity or held in it —
// cached results, in-flight singleflights, the sub-CSR — stays valid and
// warm.
// A component's version pins its full scoring context: the member
// adjacency AND the w_G the modularity objectives divide by. A served
// answer is therefore always the exact serial-reference answer for the
// graph as of that component's version. (Consequence, by design: on a
// multi-component graph, churn in one component does not shift the
// normalization term of answers served for other, untouched components —
// their answers stay bit-stable until the component itself changes.)
// The epoch is only the sequence number of the graph version: 0 at
// construction, +1 per applied batch, and the version a fresh stamp takes.
type Snapshot struct {
	csr         *graph.CSR
	compID      []int32        // node id -> component id
	comps       [][]graph.Node // component id -> sorted member list
	cv          []*compVersion // component id -> its version record, shared while untouched
	epoch       uint64         // graph version; 0 at construction, +1 per Apply
	nextCompKey uint64         // next unissued component identity
}

// compVersion is one version of one component, shared by every snapshot
// that carries it. Every field but sub is set when the version is stamped
// and never written again.
type compVersion struct {
	key, ver uint64    // stable identity; the epoch the component last changed
	wG       float64   // normalization weight w_G frozen at ver
	hist     []compRef // superseded ancestor versions, newest first
	once     sync.Once
	// sub is the compact sub-CSR (the component's adjacency relabelled
	// into dense 0..k-1 ids), written only inside once.Do: the one write
	// a published record allows.
	sub *graph.SubCSR
}

// compRef names one superseded version in a component's ancestry: the
// identity and version a now-replaced component was stamped with.
// LookupStale probes these, newest first, to serve bounded-staleness
// answers for a component that churned.
type compRef struct {
	key, ver uint64
}

// NewSnapshot builds the read-optimized snapshot of g at epoch 0, every
// component stamped fresh. Nothing is packed or flooded here: the
// snapshot shares g's packed arrays and g's memoised component partition,
// which are immutable on both sides — Apply builds successors by copy and
// never writes into a predecessor.
func NewSnapshot(g *graph.Graph) *Snapshot {
	compID, comps := g.Components()
	fresh := make([]int32, len(comps))
	for i := range fresh {
		fresh[i] = -1
	}
	s, _, _ := newSnapshotFrom(&Snapshot{}, graph.NewCSR(g), compID, comps, fresh, 0, 0)
	return s
}

// newSnapshotFrom builds the successor of prev after a merge: component
// id -> old id correspondence comes from carried (see
// graph.UpdatePartition, which hands back prev's own compID and comps when
// the batch changed no component's members: snapshots never write their
// partition, so sharing it is safe). A carried component shares prev's
// record — identity, version, frozen w_G, staleness ancestry and sub-CSR,
// built or not. Every other component gets a fresh record: a new
// identity, the new epoch as its version, the new graph's total weight as
// its w_G, and an ancestry assembled from the old components its members
// came from (bounded by staleRetention; empty when retention is off).
// Returns the snapshot plus how many old components were invalidated
// (superseded by a fresh successor) and how many were retained (carried).
func newSnapshotFrom(prev *Snapshot, csr *graph.CSR, compID []int32, comps [][]graph.Node, carried []int32, epoch uint64, staleRetention int) (s *Snapshot, invalidated, retained int) {
	s = &Snapshot{
		csr:         csr,
		compID:      compID,
		comps:       comps,
		cv:          make([]*compVersion, len(comps)),
		epoch:       epoch,
		nextCompKey: prev.nextCompKey,
	}
	for id, from := range carried {
		if from >= 0 {
			s.cv[id] = prev.cv[from]
			retained++
			continue
		}
		v := &compVersion{key: s.nextCompKey, ver: epoch, wG: csr.TotalWeight()}
		s.nextCompKey++
		if staleRetention > 0 {
			v.hist = ancestryOf(prev, comps[id], staleRetention)
		}
		s.cv[id] = v
	}
	return s, len(prev.comps) - retained, retained
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
		v := prev.cv[prev.compID[u]]
		if seen[v.key] {
			continue
		}
		seen[v.key] = true
		refs = append(refs, compRef{key: v.key, ver: v.ver})
		refs = append(refs, v.hist...)
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
func (s *Snapshot) ComponentKey(id int32) uint64 { return s.cv[id].key }

// ComponentVersion returns component id's version — the epoch at which
// the component last changed. An Apply that does not touch the component
// leaves it unchanged, so results computed at this version stay servable.
func (s *Snapshot) ComponentVersion(id int32) uint64 { return s.cv[id].ver }

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
// first use. The build runs once per component version, not once per
// snapshot: every snapshot carrying the version shares its record, so
// whichever of them asks first builds the one sub all of them serve. The
// build pins the version's frozen w_G, and a carried component's member
// adjacency is identical in every snapshot that carries it, so the sub
// scores the same whichever snapshot built it. A component spanning the
// whole graph wraps the main CSR instead of copying it while that is
// still the contiguous pack it was built as (a merged one is a page
// table, and its component is extracted like any other). Safe for
// concurrent callers; the result is immutable and shared.
func (s *Snapshot) SubCSR(id int32) *graph.SubCSR {
	v := s.cv[id]
	v.once.Do(func() {
		if len(s.comps[id]) == s.csr.NumNodes() && v.wG == s.csr.TotalWeight() && s.csr.Contiguous() {
			v.sub = graph.WrapCSR(s.csr)
		} else {
			v.sub = graph.NewSubCSRAt(s.csr, s.comps[id], v.wG)
		}
	})
	return v.sub
}
