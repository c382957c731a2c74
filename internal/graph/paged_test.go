package graph

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// sharedPages reports, per page of next, whether it is prev's page — the
// same arrays, not equal ones.
func sharedPages(prev, next *CSR) []bool {
	out := make([]bool, len(next.pages))
	for p := range out {
		out[p] = p < len(prev.pages) && &prev.pages[p].offsets[0] == &next.pages[p].offsets[0]
	}
	return out
}

// TestMergeCSRPageBoundaries pins the copy-on-write merge at the edges of
// its row pages. Every case is merged into an unweighted and a weighted
// snapshot, held bit for bit to a from-scratch pack (mergeStep), and then
// to the exact set of pages it may rebuild: the listed ones and no other.
func TestMergeCSRPageBoundaries(t *testing.T) {
	const n = 1000 // pages 0..3, the last one holding rows 768..999
	last := Node(n - 1)
	rowOps := func(rows ...Node) func(*CSR) []Delta {
		return func(c *CSR) []Delta {
			var ops []Delta
			for _, u := range rows {
				ops = append(ops, Delta{Op: DeltaRemoveEdge, U: u, V: c.Neighbors(u)[0]})
			}
			return ops
		}
	}
	cases := []struct {
		name    string
		ops     func(c *CSR) []Delta
		rebuilt []int // pages that must not be shared; every other page must be
	}{
		// islandGraph rings are 40 wide, so a row's first neighbor is in its
		// own page except where an island straddles a boundary.
		{"row 0", rowOps(0), []int{0}},
		{"row 255", func(*CSR) []Delta { return []Delta{{Op: DeltaAddEdge, U: 255, V: 250}} }, []int{0}},
		{"row 256", func(*CSR) []Delta { return []Delta{{Op: DeltaAddEdge, U: 256, V: 260}} }, []int{1}},
		{"row 257", func(*CSR) []Delta { return []Delta{{Op: DeltaAddEdge, U: 257, V: 270}} }, []int{1}},
		{"last row", func(*CSR) []Delta { return []Delta{{Op: DeltaAddEdge, U: last, V: last - 5}} }, []int{3}},
		{"edge across the 255|256 boundary", func(*CSR) []Delta {
			return []Delta{{Op: DeltaRemoveEdge, U: 255, V: 256}}
		}, []int{0, 1}},
		{"edge between distant pages", func(*CSR) []Delta {
			return []Delta{{Op: DeltaSetWeight, U: 3, V: 900, W: 1}}
		}, []int{0, 3}},
		{"page emptied to all-degree-0", func(c *CSR) []Delta {
			var ops []Delta
			for u := Node(256); u < 512; u++ {
				for _, v := range c.Neighbors(u) {
					ops = append(ops, Delta{Op: DeltaRemoveEdge, U: u, V: v})
				}
			}
			return ops
		}, []int{0, 1, 2}}, // the islands straddling 255|256 and 511|512 reach into the neighbours
		{"growth that starts mid-page", func(*CSR) []Delta {
			return []Delta{{Op: DeltaAddNode, U: n + 9}}
		}, []int{3}},
		{"growth into the next page", func(*CSR) []Delta {
			return []Delta{{Op: DeltaAddEdge, U: 1030, V: 1031}}
		}, []int{3, 4}},
		{"growth that skips whole pages of isolated nodes", func(*CSR) []Delta {
			return []Delta{{Op: DeltaAddEdge, U: 2100, V: 7}}
		}, []int{0, 3, 4, 5, 6, 7, 8}},
		{"delete only", func(c *CSR) []Delta {
			return append(rowOps(10, 300)(c), rowOps(last)(c)...)
		}, []int{0, 1, 3}},
	}
	for _, weighted := range []bool{false, true} {
		g := islandGraph(rand.New(rand.NewSource(3)), n, 40, weighted)
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/weighted=%v", tc.name, weighted), func(t *testing.T) {
				base := NewCSR(g)
				compID, comps := base.Components()
				next, _, _ := mergeStep(t, base, newRefModel(g), compID, comps, tc.ops(base))
				for p, shared := range sharedPages(base, next) {
					if want := !slices.Contains(tc.rebuilt, p); shared != want {
						t.Errorf("page %d shared with the predecessor = %v, want %v", p, shared, want)
					}
				}
				// A second merge on top of the merged snapshot: pages it leaves
				// alone are shared again, whether cut from the contiguous pack
				// or built by the first merge.
				after, _ := MergeCSR(next, []Delta{{Op: DeltaAddEdge, U: 600, V: 605}})
				for p, shared := range sharedPages(next, after) {
					if shared != (p != 2) {
						t.Errorf("second merge: page %d shared = %v", p, shared)
					}
				}
			})
		}
	}
}

// TestMergeCSRBecomesWeightedRewritesEveryPage: the batch that turns an
// unweighted snapshot weighted can share nothing — every page needs
// explicit unit weights — and the result is the weighted pack bit for bit.
func TestMergeCSRBecomesWeightedRewritesEveryPage(t *testing.T) {
	g := islandGraph(rand.New(rand.NewSource(4)), 1000, 40, false)
	base := NewCSR(g)
	compID, comps := base.Components()
	next, _, _ := mergeStep(t, base, newRefModel(g), compID, comps, []Delta{{Op: DeltaSetWeight, U: 700, V: 701, W: 2.5}})
	if !next.Weighted() {
		t.Fatal("snapshot did not become weighted")
	}
	for p, shared := range sharedPages(base, next) {
		if shared {
			t.Errorf("page %d of the weighted successor is the unweighted page", p)
		}
	}
	for u := Node(0); int(u) < next.NumNodes(); u++ {
		for i, w := range next.NeighborWeights(u) {
			if want := 1.0; w != want && !(u == 700 || next.Neighbors(u)[i] == 700) {
				t.Fatalf("carried entry (%d,%d) has weight %v, want 1", u, next.Neighbors(u)[i], w)
			}
		}
	}
}

// TestMergeCSRSharesUntouchedPages is the memory claim of the paged store
// on the serving-shaped fixture: an 8-edge batch inside one 64-node
// island of a 32768-node snapshot rebuilds exactly the one page holding
// that island; every other row of the successor is the predecessor's
// memory.
func TestMergeCSRSharesUntouchedPages(t *testing.T) {
	c, batches := applyBenchFixture()
	touched := int(batches[0][0].U) >> pageShift
	for round := 0; round < 4; round++ {
		next, _ := MergeCSR(c, batches[round%2])
		for u := Node(0); int(u) < c.NumNodes(); u++ {
			same := &c.Neighbors(u)[0] == &next.Neighbors(u)[0]
			if want := int(u)>>pageShift != touched; same != want {
				t.Fatalf("round %d: row %d shares its entries with the predecessor = %v, want %v", round, u, same, want)
			}
		}
		c = next
	}
}

// chainBatch draws a sparse batch the way TestMergeCSRSparseBatchesDifferential
// does: mostly ring edges, sometimes growth.
func chainBatch(rng *rand.Rand, n int, weighted bool) []Delta {
	var ops []Delta
	for k := 1 + rng.Intn(5); k > 0; k-- {
		u := Node(rng.Intn(n))
		if rng.Intn(10) == 0 {
			u = Node(n + rng.Intn(3)) // grows the graph, sometimes leaving a gap
		}
		d := Delta{Op: DeltaOp(rng.Intn(4)), U: u, V: u + 1, W: 1}
		if rng.Intn(3) == 0 {
			d.V = Node(rng.Intn(n))
		}
		if weighted {
			d.W = 0.5 + 2*rng.Float64()
		}
		ops = append(ops, d)
	}
	return ops
}

// TestMergedSnapshotsAreNeverWritten: the image of a snapshot taken
// before 200 merges are chained on top of it equals the image taken
// after, for the contiguous base and for a merged snapshot in the middle
// of the chain (whose pages are partly the base's, partly its own) — and
// across the batch that turns the chain weighted.
func TestMergedSnapshotsAreNeverWritten(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	base := NewCSR(islandGraph(rng, 2100, 48, false))
	mid := base
	for i := 0; i < 20; i++ {
		mid, _ = MergeCSR(mid, chainBatch(rng, mid.NumNodes(), false))
	}
	baseImage, midImage := AppendCSR(nil, base), AppendCSR(nil, mid)
	cur := mid
	for i := 0; i < 200; i++ {
		cur, _ = MergeCSR(cur, chainBatch(rng, cur.NumNodes(), i >= 150))
	}
	if !cur.Weighted() || cur.NumNodes() <= mid.NumNodes() {
		t.Fatalf("the chain did not grow and turn weighted: n %d -> %d, weighted %v", mid.NumNodes(), cur.NumNodes(), cur.Weighted())
	}
	if !bytes.Equal(AppendCSR(nil, base), baseImage) {
		t.Fatal("the contiguous base changed under the merges chained on it")
	}
	if !bytes.Equal(AppendCSR(nil, mid), midImage) {
		t.Fatal("a merged snapshot changed under the merges chained on it")
	}
}

// TestReadersOnOldSnapshotsWhileMergesChain is the lock-free sharing
// argument under the race detector: one writer chains merges while four
// readers extract subs, probe edges and flood components on whatever
// older snapshots they picked up. Every page a reader touches is shared
// with some successor being built; none may be written.
func TestReadersOnOldSnapshotsWhileMergesChain(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	base := NewCSR(islandGraph(rng, 2100, 48, true))
	var mu sync.Mutex
	published := []*CSR{base}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				mu.Lock()
				c := published[rng.Intn(len(published))]
				mu.Unlock()
				_, comps := c.Components()
				members := comps[rng.Intn(len(comps))]
				sub := NewSubCSR(c, members)
				edges := 0
				for _, u := range members {
					for _, v := range c.Neighbors(u) {
						if !c.HasEdge(v, u) {
							t.Errorf("snapshot lost the reverse of edge (%d,%d)", u, v)
							return
						}
						edges++
					}
				}
				if sub.NumEdges()*2 != edges {
					t.Errorf("sub of a %d-node component has %d entries, the snapshot's rows have %d", len(members), sub.NumEdges()*2, edges)
					return
				}
			}
		}(int64(r))
	}
	cur := base
	for i := 0; i < 300; i++ {
		cur, _ = MergeCSR(cur, chainBatch(rng, cur.NumNodes(), true))
		mu.Lock()
		published = append(published, cur)
		mu.Unlock()
	}
	close(stop)
	wg.Wait()
}
