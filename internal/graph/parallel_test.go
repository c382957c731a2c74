package graph

import (
	"math/rand"
	"sync/atomic"
	"testing"
)

func parRandomCSR(rng *rand.Rand, n int, p float64, weighted bool) *CSR {
	b := NewBuilder(n)
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		u, v := Node(perm[i-1]), Node(perm[i])
		if weighted {
			b.SetWeight(u, v, 0.5+2.5*rng.Float64())
		} else {
			b.AddEdge(u, v)
		}
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				if weighted {
					b.SetWeight(Node(u), Node(v), 0.5+2.5*rng.Float64())
				} else {
					b.AddEdge(Node(u), Node(v))
				}
			}
		}
	}
	return NewCSR(b.Build())
}

// TestParRangeCoversEveryIndex proves ParRange partitions [0, n) exactly:
// every index visited once, chunk ids dense, no overlap — across the
// degenerate shapes (n < workers, n == 0, workers <= 1).
func TestParRangeCoversEveryIndex(t *testing.T) {
	for _, tc := range []struct{ workers, n int }{
		{1, 10}, {4, 10}, {4, 3}, {8, 8}, {3, 100}, {16, 17}, {5, 0}, {0, 5},
	} {
		seen := make([]int32, tc.n)
		ParRange(tc.workers, tc.n, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&seen[i], 1)
			}
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("workers=%d n=%d: index %d visited %d times", tc.workers, tc.n, i, c)
			}
		}
	}
}

// TestParallelBFSMatchesSerial proves MultiSourceBFSParInto writes the
// exact distance array the serial BFS writes, including on views with
// dead nodes, for every worker count and frontier threshold.
func TestParallelBFSMatchesSerial(t *testing.T) {
	oldFrontier := ParMinFrontier
	defer func() { ParMinFrontier = oldFrontier }()
	for _, frontier := range []int{1, 4, 1 << 20} { // always-parallel, mixed, always-serial-rounds
		ParMinFrontier = frontier
		for seed := int64(0); seed < 5; seed++ {
			rng := rand.New(rand.NewSource(300 + seed))
			n := 100 + rng.Intn(200)
			c := parRandomCSR(rng, n, 0.03, seed%2 == 0)
			v := NewCSRView(c)
			// kill a random subset so dead-node handling is exercised
			for u := 0; u < n; u++ {
				if rng.Float64() < 0.2 {
					v.Remove(Node(u))
				}
			}
			sources := []Node{Node(rng.Intn(n)), Node(rng.Intn(n))}
			want := v.MultiSourceBFS(sources)
			for _, workers := range []int{2, 3, 8} {
				dist := make([]int32, n)
				queue := make([]Node, 0, n)
				next := make([][]Node, workers)
				got := v.MultiSourceBFSParInto(sources, dist, queue, workers, next)
				for u := range want {
					if want[u] != got[u] {
						t.Fatalf("seed=%d workers=%d frontier=%d: dist[%d] = %d, serial %d", seed, workers, frontier, u, got[u], want[u])
					}
				}
			}
		}
	}
}
