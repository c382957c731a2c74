package engine

import (
	"fmt"

	"dmcs/internal/faultinject"
	"dmcs/internal/graph"
	"dmcs/internal/wal"
)

// Batch stages an ordered set of graph mutations for Engine.Apply. The
// zero value is an empty batch; stage ops with AddEdge / SetWeight /
// RemoveEdge / AddNode and hand the batch to Apply, which applies it
// atomically — queries see either none of the batch or all of it, never a
// prefix. Within a batch the last op on an edge wins, matching the
// Builder's duplicate-edge rule.
//
// A Batch is not safe for concurrent staging; build it on one goroutine
// (or guard it) and it may be reused after Apply via Reset.
type Batch struct {
	ops []graph.Delta
}

// AddEdge stages inserting the undirected edge (u,v) with weight 1.
// Inserting an existing edge resets its weight to 1 (last wins).
// Endpoints beyond the current node count grow the graph. Self-loops are
// ignored, as in the Builder.
func (b *Batch) AddEdge(u, v graph.Node) {
	b.ops = append(b.ops, graph.Delta{Op: graph.DeltaAddEdge, U: u, V: v, W: 1})
}

// SetWeight stages setting the weight of edge (u,v) to w, inserting the
// edge if absent. Applying a non-unit weight to a previously unweighted
// graph upgrades it to weighted.
func (b *Batch) SetWeight(u, v graph.Node, w float64) {
	b.ops = append(b.ops, graph.Delta{Op: graph.DeltaSetWeight, U: u, V: v, W: w})
}

// RemoveEdge stages deleting the undirected edge (u,v). Removing an
// absent edge is a no-op.
func (b *Batch) RemoveEdge(u, v graph.Node) {
	b.ops = append(b.ops, graph.Delta{Op: graph.DeltaRemoveEdge, U: u, V: v})
}

// AddNode stages ensuring node u exists (growing the node count to u+1),
// as an isolated node unless edges to it are staged too.
func (b *Batch) AddNode(u graph.Node) {
	b.ops = append(b.ops, graph.Delta{Op: graph.DeltaAddNode, U: u})
}

// Len returns the number of staged ops.
func (b *Batch) Len() int { return len(b.ops) }

// Reset empties the batch for reuse, keeping its capacity.
func (b *Batch) Reset() { b.ops = b.ops[:0] }

// ApplyStats reports what one Engine.Apply did.
type ApplyStats struct {
	// Epoch is the version of the snapshot the batch produced (the
	// engine's initial snapshot is epoch 0). A batch whose ops all
	// normalize to nothing leaves the current version — and its warm
	// caches — in place, reporting the unchanged epoch.
	Epoch uint64
	// NodesAdded, EdgesAdded, EdgesRemoved, and WeightsChanged count the
	// batch's net effect after last-wins normalization against the
	// pre-batch snapshot: re-adding an existing edge or removing an absent
	// one counts nothing.
	NodesAdded, EdgesAdded, EdgesRemoved, WeightsChanged int
	// RefloodedNodes is how many nodes the incremental component
	// maintenance re-flooded — 0 for insert-only batches, and bounded by
	// the sizes of the post-union components containing a removal (a
	// batch that both merges components and removes an edge inside the
	// merged group re-floods the whole group).
	RefloodedNodes int
	// Components is the component count of the new snapshot.
	Components int
	// Invalidated counts the pre-batch components this Apply superseded:
	// their cached results, sub-CSRs, and in-flight singleflights became
	// unservable on the fresh path. Retained counts the pre-batch
	// components carried verbatim into the new snapshot — their versions,
	// caches, and flights all survived. Invalidated + Retained equals the
	// pre-batch component count.
	Invalidated, Retained int
}

// Apply merges the batch into the current snapshot and publishes the
// result as the next graph version. Concurrent Apply calls are
// serialized; Search/SearchBatch are never blocked — queries in flight
// drain on the version they admitted against (old snapshots are immutable
// and stay valid until their last reader finishes), and queries admitted
// after Apply returns run on the new version.
//
// Invalidation is component-scoped and airtight: every cache key, flight
// key, and sub-CSR belongs to one component version record (identity,
// version, frozen w_G), and Apply stamps a fresh record only for the
// components the batch actually touched; every other component's record
// is carried to the new snapshot by pointer, built sub-CSR included.
// Results for untouched components stay servable — no eager cache clear,
// no cross-shard sweep; entries for superseded component versions become
// unreachable on the fresh path the instant the new snapshot is published
// (LookupStale may still probe them, flagged, within StaleRetention) and
// age out of the LRU naturally. No query can ever observe a community
// computed against a superseded version of its component — not even a
// result that a slow pre-batch query inserts into the cache after the
// swap. In-flight singleflight computations are deliberately left
// running: flights for untouched components remain joinable and their
// results cacheable (their key is still current), while flights for
// touched components publish under the superseded version, unreachable by
// post-swap lookups.
//
// Cost: the merge rebuilds only the row pages the batch touches and shares
// every other page with the previous snapshot (memory proportional to the
// batch, not to the graph), and component maintenance is incremental —
// insertions union in near-constant time, only components that lost an
// edge are re-flooded. A batch that changes no component's members (it
// adds no node, inserts edges only inside a component, and splits none)
// keeps the previous partition, shared with the new snapshot, and costs
// O(batch + components) plus that re-flood. A batch that adds a node,
// merges components or splits one still relabels compID for all n nodes
// and refills the member lists into one flat array; a weighted snapshot
// also re-sums w_G. See graph.MergeCSR and graph.UpdatePartition for the
// cost model.
//
// On an engine opened through OpenDurable, the batch is appended to the
// write-ahead log BEFORE the snapshot is published, and an append
// failure fails the whole Apply: the error return is non-nil, nothing
// was published, queries keep seeing the pre-batch version, and no
// un-logged state is ever served or acknowledged.
//
// A batch that would store a NaN, infinite or negative weight is rejected
// whole, before anything else happens, with an error wrapping
// graph.ErrBadWeight: nothing is merged, logged or published and the
// epoch does not move (one such weight would turn w_G, and every later
// score of the component, into NaN — durably, on a WAL-backed engine).
// On an engine without a WAL (New) that is the only error Apply returns.
func (e *Engine) Apply(b Batch) (ApplyStats, error) {
	e.applyMu.Lock()
	defer e.applyMu.Unlock()
	// The slow-Apply injection point: chaos profiles inject latency here
	// to stall mutation while queries keep draining on the old snapshot
	// (writers hold applyMu, so the stall also backs up later Applies —
	// exactly the failure being modeled). Error directives are
	// deliberately dropped for compatibility with the pre-durability
	// chaos profiles — the faultinject.WALAppend point inside the log is
	// where injected errors fail an Apply; an injected panic propagates
	// to the caller with applyMu released by the defer above.
	_ = faultinject.Fire(faultinject.EngineApply)
	if err := graph.CheckDeltas(b.ops); err != nil {
		return ApplyStats{}, fmt.Errorf("engine: apply rejected: %w", err)
	}
	cur := e.snap.Load()
	next, st := successor(cur, b.ops, e.staleRetention)
	if next == nil {
		// No ops, or every op normalized away (removes of absent edges,
		// re-adds of existing ones): keep the current version and its warm
		// result/sub-CSR caches. Nothing is logged either — ineffective
		// batches do not consume an epoch, so the log's epoch sequence
		// stays dense and replayable.
		return st, nil
	}
	if e.wal != nil {
		// Durability point: the raw staged ops (replay renormalizes them
		// identically) plus the version stamps of the touched components,
		// which recovery re-derives and verifies. Runs before the swap so
		// a failed append leaves the engine exactly at the pre-batch
		// version.
		rec := wal.Record{Epoch: next.epoch, Stamps: touchedStamps(next), Ops: b.ops}
		if err := e.wal.Append(rec); err != nil {
			return ApplyStats{}, fmt.Errorf("engine: apply epoch %d not durable: %w", next.epoch, err)
		}
	}
	e.invalidated.Add(uint64(st.Invalidated))
	e.retained.Add(uint64(st.Retained))
	e.snap.Store(next)
	e.maybeCheckpoint()
	return st, nil
}

// successor merges ops into cur and builds the snapshot they produce —
// the one path from a batch to the next version, shared by Apply and
// WAL replay — with the stats Apply reports. It returns a nil snapshot,
// and cur's epoch in the stats, when every op normalizes away: MergeCSR
// then hands cur.csr itself back.
func successor(cur *Snapshot, ops []graph.Delta, staleRetention int) (*Snapshot, ApplyStats) {
	csr, info := graph.MergeCSR(cur.csr, ops)
	if info.NodesAdded == 0 && len(info.Inserted) == 0 && len(info.Removed) == 0 && info.WeightsChanged == 0 {
		return nil, ApplyStats{Epoch: cur.epoch, Components: len(cur.comps)}
	}
	compID, comps, carried, reflooded := graph.UpdatePartition(csr, cur.compID, cur.comps, info)
	next, invalidated, retained := newSnapshotFrom(cur, csr, compID, comps, carried, cur.epoch+1, staleRetention)
	return next, ApplyStats{
		Epoch:          next.epoch,
		NodesAdded:     info.NodesAdded,
		EdgesAdded:     len(info.Inserted),
		EdgesRemoved:   len(info.Removed),
		WeightsChanged: info.WeightsChanged,
		RefloodedNodes: reflooded,
		Components:     len(comps),
		Invalidated:    invalidated,
		Retained:       retained,
	}
}

// maybeCheckpoint triggers a background checkpoint every
// Options.CheckpointEvery effective Applies. At most one runs at a
// time; a trigger that finds one in flight folds into it (the running
// checkpoint captures whatever snapshot is current when it reads).
func (e *Engine) maybeCheckpoint() {
	if e.wal == nil || e.checkpointEvery <= 0 {
		return
	}
	if e.sinceCkpt.Add(1) < int64(e.checkpointEvery) {
		return
	}
	if !e.ckptBusy.CompareAndSwap(false, true) {
		return
	}
	e.sinceCkpt.Store(0)
	go func() {
		defer e.ckptBusy.Store(false)
		if _, err := e.Checkpoint(); err != nil {
			e.ckptFails.Add(1)
		}
	}()
}
