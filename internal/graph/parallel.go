package graph

import (
	"sync"
	"sync/atomic"
)

// This file holds the intra-query parallel kernels: a gang-scheduling
// range helper and a level-synchronous parallel multi-source BFS.
//
// The BFS is EXACT, not merely deterministic: it writes the distances the
// serial BFS writes regardless of worker count or goroutine schedule,
// because a BFS level is schedule-independent. Kernels built on ParRange
// elsewhere keep the same contract the same way: parallel phases compute
// per-node/per-worker values whose definitions are schedule-independent,
// and every float accumulation into shared state is replayed serially in
// the fixed serial order afterwards. See the package notes on CSRView for
// why float order is load-bearing.

// ParRange splits [0, n) into at most workers contiguous chunks and runs
// fn(chunk, lo, hi) on each concurrently, returning when all chunks are
// done. Chunk 0 runs on the calling goroutine; chunk ids are dense from
// 0. With workers <= 1 (or n <= chunk size) it degenerates to one inline
// call, so callers can dispatch unconditionally. The wait-group barrier
// establishes happens-before between everything the chunks wrote and the
// caller's continuation.
func ParRange(workers, n int, fn func(chunk, lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, 0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 1; w*chunk < n; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			fn(w, lo, hi)
		}(w, lo, hi)
	}
	fn(0, 0, chunk)
	wg.Wait()
}

// ParMinFrontier is the BFS frontier size below which a parallel BFS
// round expands serially on the coordinating goroutine — waking workers
// for a handful of nodes costs more than the expansion. A var so the
// differential tests can force the parallel rounds on small graphs.
var ParMinFrontier = 256

// MultiSourceBFSParInto is MultiSourceBFSInto computed by workers
// goroutines. dist needs length >= NumNodes and queue capacity >=
// NumNodes; next supplies one per-worker frontier buffer per worker
// (grown buffers are handed back in place).
//
// The output is bit-identical to the serial BFS: a node's distance is
// its BFS level, which is schedule-independent — each level-synchronous
// round claims exactly the unvisited alive neighbors of the current
// frontier via compare-and-swap, so no interleaving can assign a node
// anything but its true level. Only the ORDER of nodes within the
// returned frontier buffers is schedule-dependent, and nothing reads it:
// callers consume dist alone.
func (v *CSRView) MultiSourceBFSParInto(sources []Node, dist []int32, queue []Node, workers int, next [][]Node) []int32 {
	if workers <= 1 {
		return v.MultiSourceBFSInto(sources, dist, queue)
	}
	n := v.c.NumNodes()
	dist = dist[:n]
	ParRange(workers, n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			dist[i] = INF
		}
	})
	frontier := queue[:0]
	for _, s := range sources {
		if v.alive[s] && dist[s] == INF {
			dist[s] = 0
			frontier = append(frontier, s)
		}
	}
	queue = frontier
	// Round invariant: frontier is a prefix of queue; expansion writes
	// only the per-worker next buffers; consolidation then rewrites
	// queue[:0] AFTER the old frontier is fully consumed. That keeps the
	// read and write sides of every round on disjoint memory. The
	// per-worker buffers are truncated up front each round because a
	// round may invoke fewer chunks than workers — a stale buffer from an
	// earlier, wider round must not be concatenated again.
	var d int32
	for len(frontier) > 0 {
		d++
		for w := range next {
			next[w] = next[w][:0]
		}
		if len(frontier) < ParMinFrontier {
			// Small frontier: expand on this goroutine with plain writes —
			// the round barriers order these against the parallel rounds.
			buf := next[0]
			for _, u := range frontier {
				for _, w := range v.c.Neighbors(u) {
					if v.alive[w] && dist[w] == INF {
						dist[w] = d
						buf = append(buf, w)
					}
				}
			}
			next[0] = buf
		} else {
			ParRange(workers, len(frontier), func(chunk, lo, hi int) {
				buf := next[chunk]
				for _, u := range frontier[lo:hi] {
					for _, w := range v.c.Neighbors(u) {
						if v.alive[w] && atomic.LoadInt32(&dist[w]) == INF &&
							atomic.CompareAndSwapInt32(&dist[w], INF, d) {
							buf = append(buf, w)
						}
					}
				}
				next[chunk] = buf
			})
		}
		// Consolidate into the queue buffer; total frontier size never
		// exceeds n, so queue never reallocates past its n capacity.
		nf := queue[:0]
		for w := range next {
			nf = append(nf, next[w]...)
		}
		queue = nf
		frontier = nf
	}
	return dist
}
