package harness

import (
	"crypto/sha256"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"dmcs/internal/graph"
	"dmcs/internal/kcore"
	"dmcs/internal/kecc"
	"dmcs/internal/lfr"
	"dmcs/internal/queries"
	"dmcs/internal/wu2015"
)

// baselineGolden renders, one line per (baseline, query), the exact node
// set each alive-set baseline returns on LFR n = 1000 seed 1 for the
// internal/queries protocol (20 sets at |Q| = 1, 5 at |Q| = 3): its size
// and the SHA-256 of its sorted ids. kecc runs at the harness k, where it
// keeps the whole graph, and at the query's highest core number, where the
// degree peel removes most of it.
func baselineGolden(t *testing.T) string {
	t.Helper()
	cfg := lfr.Default()
	cfg.N = 1000
	res, err := lfr.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := res.G
	c := DefaultConfig(nil)
	var sb strings.Builder
	line := func(algo string, q, comm []graph.Node, extra string) {
		comm = slices.Clone(comm)
		slices.Sort(comm)
		fmt.Fprintf(&sb, "%s q=%v%s n=%d sha256=%x\n", algo, q, extra, len(comm), sha256.Sum256([]byte(fmt.Sprint(comm))))
	}
	for _, sets := range [][2]int{{c.NumQuerySets, 1}, {5, 3}} {
		qs := queries.Generate(g, res.Communities, queries.Options{
			NumSets: sets[0], Size: sets[1], TrussK: c.K, Seed: c.Seed,
		})
		for _, q := range qs {
			comm, k := kcore.HighestCore(g, q)
			line("kcore.HighestCore", q, comm, fmt.Sprintf(" k=%d", k))
			line("kcore.Community", q, kcore.Community(g, q, c.K), "")
			line("kecc.Community", q, kecc.Community(g, q, c.K, c.Seed), "")
			line("kecc.Community", q, kecc.Community(g, q, k, c.Seed), fmt.Sprintf(" k=%d", k))
			line("wu2015.Search", q, wu2015.Search(g, q, wu2015.Options{Eta: 0.5}), "")
		}
	}
	return sb.String()
}

// TestBaselineGolden pins the baselines that peel an alive set to the
// node sets they returned before kcore and kecc moved onto graph.CSRView
// (testdata/baselines_lfr1000.golden was recorded at the commit before
// that port); the accuracy tests in this package only bound them loosely.
func TestBaselineGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("20 wu2015 peels of a 1000-node graph")
	}
	want, err := os.ReadFile("testdata/baselines_lfr1000.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := baselineGolden(t)
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range gl {
		if i >= len(wl) || gl[i] != wl[i] {
			w := "(nothing)"
			if i < len(wl) {
				w = wl[i]
			}
			t.Fatalf("line %d:\n got %s\nwant %s", i+1, gl[i], w)
		}
	}
	t.Fatalf("got %d lines, want %d", len(gl), len(wl))
}
