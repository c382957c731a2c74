package engine

import (
	"fmt"
	"io"
	"sort"

	"dmcs/internal/graph"
	"dmcs/internal/wal"
)

// Durable engines: an Engine wired to a write-ahead log. Apply appends
// each effective batch to the WAL before publishing its snapshot (an
// append failure fails the Apply — no un-logged state is ever served),
// periodic checkpoints bound replay time, and OpenDurable restarts into
// exactly the last durable epoch by loading the newest checkpoint and
// replaying the log suffix.
//
// Replay is bit-exact by construction: MergeCSR, UpdatePartition, and
// newSnapshotFrom are deterministic functions of (previous snapshot,
// ops), so replaying the logged ops reproduces not just the adjacency
// but the full component version vector — stable keys, versions, frozen
// w_G — that the cache-invalidation machinery is keyed by. Each log
// record carries the version stamps of the components its Apply
// touched; recovery re-derives them and refuses on any mismatch, so a
// divergence bug surfaces as a loud recovery error, never as a silently
// wrong graph. The one deliberate non-survivor is per-component
// stale-read ancestry (LookupStale's bounded history): it is a serving
// cache, empty after every restart.

// RecoveryInfo reports what OpenDurable reconstructed.
type RecoveryInfo struct {
	// CheckpointEpoch is the epoch of the checkpoint recovery started
	// from (0 for a fresh directory).
	CheckpointEpoch uint64
	// RecoveredEpoch is the epoch the engine serves after recovery.
	RecoveredEpoch uint64
	// RecordsReplayed is how many log records were replayed on top of
	// the checkpoint.
	RecordsReplayed int
	// TruncatedBytes is how much torn log tail recovery cut off.
	TruncatedBytes int64
	// SkippedCheckpoints counts invalid (torn) checkpoint files recovery
	// fell past.
	SkippedCheckpoints int
	// FreshStart reports that the data directory was empty and the
	// engine was seeded from the supplied graph.
	FreshStart bool
}

// OpenDurable opens (or initializes) the write-ahead log in wopts.Dir
// and returns an Engine serving the recovered state. A fresh directory
// is seeded from g (nil means an empty graph) and immediately
// checkpointed, so every subsequent recovery has a base image; a
// non-fresh directory ignores g entirely — the durable state is
// authoritative. Callers must CloseWAL when done.
func OpenDurable(g *graph.Graph, wopts wal.Options, opts Options) (*Engine, RecoveryInfo, error) {
	lg, recd, err := wal.Open(wopts)
	if err != nil {
		return nil, RecoveryInfo{}, err
	}
	info := RecoveryInfo{
		CheckpointEpoch:    recd.BaseEpoch,
		RecordsReplayed:    len(recd.Records),
		TruncatedBytes:     recd.TruncatedBytes,
		SkippedCheckpoints: recd.SkippedCheckpoints,
	}
	e := newEngine(opts)
	e.wal = lg
	e.checkpointEvery = opts.CheckpointEvery
	if recd.Checkpoint == nil {
		if len(recd.Records) > 0 {
			lg.Close()
			return nil, info, fmt.Errorf("engine: data dir has %d log records but no checkpoint to replay them onto", len(recd.Records))
		}
		if g == nil {
			g = graph.NewBuilder(0).Build()
		}
		e.snap.Store(NewSnapshot(g))
		info.FreshStart = true
		// Seed checkpoint at epoch 0: without it a crash before the first
		// periodic checkpoint would leave records with no base image.
		if _, err := e.Checkpoint(); err != nil {
			lg.Close()
			return nil, info, fmt.Errorf("engine: seed checkpoint: %w", err)
		}
	} else {
		snap, err := newSnapshotFromCheckpoint(recd.Checkpoint)
		if err != nil {
			lg.Close()
			return nil, info, err
		}
		for i := range recd.Records {
			snap, err = replaySnapshot(snap, &recd.Records[i], opts.StaleRetention)
			if err != nil {
				lg.Close()
				return nil, info, err
			}
		}
		e.snap.Store(snap)
	}
	info.RecoveredEpoch = e.snap.Load().epoch
	rc := info
	e.recovery = &rc
	return e, info, nil
}

// newSnapshotFromCheckpoint rebuilds the published snapshot a
// checkpoint captured. Member lists are reconstructed by walking nodes
// in id order, which is exactly how every snapshot builder in this
// package produces them, so the result is bit-identical to the
// checkpointed original.
func newSnapshotFromCheckpoint(cp *wal.Checkpoint) (*Snapshot, error) {
	n := cp.CSR.NumNodes()
	nc := len(cp.CompKeys)
	if len(cp.CompID) != n || len(cp.CompVers) != nc || len(cp.CompWG) != nc {
		return nil, fmt.Errorf("engine: checkpoint component vectors are inconsistent")
	}
	comps := make([][]graph.Node, nc)
	for u, id := range cp.CompID {
		if id < 0 || int(id) >= nc {
			return nil, fmt.Errorf("engine: checkpoint component id %d of node %d out of range", id, u)
		}
		comps[id] = append(comps[id], graph.Node(u))
	}
	for id, members := range comps {
		if len(members) == 0 {
			return nil, fmt.Errorf("engine: checkpoint component %d has no members", id)
		}
	}
	s := &Snapshot{
		csr:         cp.CSR,
		compID:      cp.CompID,
		comps:       comps,
		cv:          make([]*compVersion, nc),
		epoch:       cp.Epoch,
		nextCompKey: cp.NextCompKey,
	}
	for id := range s.cv {
		s.cv[id] = &compVersion{key: cp.CompKeys[id], ver: cp.CompVers[id], wG: cp.CompWG[id]}
	}
	return s, nil
}

// replaySnapshot applies one logged record on top of cur, verifying
// that replay reproduces exactly what was logged: the epoch must
// advance to the record's, the batch must not normalize away (an
// ineffective batch was never logged, so one appearing here means the
// base state diverged), and the re-derived component version stamps
// must match the record's.
func replaySnapshot(cur *Snapshot, r *wal.Record, staleRetention int) (*Snapshot, error) {
	next, _ := successor(cur, r.Ops, staleRetention)
	if next == nil {
		return nil, fmt.Errorf("engine: replay diverged at epoch %d: logged batch normalized to a no-op", r.Epoch)
	}
	if next.epoch != r.Epoch {
		return nil, fmt.Errorf("engine: replay diverged: produced epoch %d for record %d", next.epoch, r.Epoch)
	}
	if err := verifyStamps(next, r.Stamps); err != nil {
		return nil, err
	}
	return next, nil
}

// verifyStamps checks that the components replay touched are exactly
// the logged stamp set — the determinism oracle of recovery.
func verifyStamps(s *Snapshot, logged []wal.ComponentStamp) error {
	derived := touchedStamps(s)
	if len(derived) != len(logged) {
		return fmt.Errorf("engine: replay diverged at epoch %d: %d touched components, log says %d", s.epoch, len(derived), len(logged))
	}
	a := append([]wal.ComponentStamp(nil), derived...)
	b := append([]wal.ComponentStamp(nil), logged...)
	sort.Slice(a, func(i, j int) bool { return a[i].Key < a[j].Key })
	sort.Slice(b, func(i, j int) bool { return b[i].Key < b[j].Key })
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("engine: replay diverged at epoch %d: component stamp %d/%d is (%d,%d), log says (%d,%d)",
				s.epoch, i, len(a), a[i].Key, a[i].Ver, b[i].Key, b[i].Ver)
		}
	}
	return nil
}

// touchedStamps collects the (identity, version) stamps of the
// components whose version is the snapshot's own epoch — exactly the
// components the producing Apply touched.
func touchedStamps(s *Snapshot) []wal.ComponentStamp {
	var stamps []wal.ComponentStamp
	for _, v := range s.cv {
		if v.ver == s.epoch {
			stamps = append(stamps, wal.ComponentStamp{Key: v.key, Ver: v.ver})
		}
	}
	return stamps
}

// checkpointOf captures snap as a checkpoint image: the version vector
// is read out of the component records, and the CSR and compID are
// aliased, which is safe because neither side ever mutates them.
func checkpointOf(snap *Snapshot) *wal.Checkpoint {
	cp := &wal.Checkpoint{
		Epoch:       snap.epoch,
		NextCompKey: snap.nextCompKey,
		CSR:         snap.csr,
		CompID:      snap.compID,
		CompKeys:    make([]uint64, len(snap.cv)),
		CompVers:    make([]uint64, len(snap.cv)),
		CompWG:      make([]float64, len(snap.cv)),
	}
	for id, v := range snap.cv {
		cp.CompKeys[id], cp.CompVers[id], cp.CompWG[id] = v.key, v.ver, v.wG
	}
	return cp
}

// Checkpoint persists the current snapshot as the newest checkpoint and
// prunes the log history it covers, returning the checkpointed epoch.
// It is a no-op (returning the existing epoch) when the newest
// checkpoint is already current. Concurrent with Apply and queries;
// the engine runs at most one periodic checkpoint at a time, and
// explicit callers racing it at worst write the same image twice.
func (e *Engine) Checkpoint() (uint64, error) {
	if e.wal == nil {
		return 0, fmt.Errorf("engine: no WAL attached")
	}
	snap := e.snap.Load()
	if ep, ok := e.wal.LastCheckpoint(); ok && ep == snap.epoch {
		return ep, nil
	}
	if err := e.wal.WriteCheckpoint(checkpointOf(snap)); err != nil {
		return 0, err
	}
	return snap.epoch, nil
}

// SyncWAL flushes and fsyncs the write-ahead log, advancing the durable
// epoch to everything applied so far. A no-op without a WAL.
func (e *Engine) SyncWAL() error {
	if e.wal == nil {
		return nil
	}
	return e.wal.Sync()
}

// DurableEpoch returns the newest epoch the WAL considers durable and
// whether a WAL is attached at all.
func (e *Engine) DurableEpoch() (uint64, bool) {
	if e.wal == nil {
		return 0, false
	}
	return e.wal.DurableEpoch(), true
}

// Recovery returns what OpenDurable reconstructed, if this engine was
// built through it.
func (e *Engine) Recovery() (RecoveryInfo, bool) {
	if e.recovery == nil {
		return RecoveryInfo{}, false
	}
	return *e.recovery, true
}

// CloseWAL syncs and closes the attached WAL (no-op without one). The
// engine must not Apply afterwards; queries keep working.
func (e *Engine) CloseWAL() error {
	if e.wal == nil {
		return nil
	}
	return e.wal.Close()
}

// EncodeState appends the engine's canonical state image — the
// checkpoint encoding of the current snapshot — to dst. Two engines
// hold bit-identical graph state (adjacency, aggregates, component
// partition, version vector) iff their EncodeState bytes are equal;
// the kill-crash differential harness compares recovered processes
// against a serial reference exactly this way.
func (e *Engine) EncodeState(dst []byte) []byte {
	return wal.AppendCheckpoint(dst, checkpointOf(e.snap.Load()))
}

// WriteStateDump writes EncodeState to w.
func (e *Engine) WriteStateDump(w io.Writer) error {
	_, err := w.Write(e.EncodeState(nil))
	return err
}
