package graph

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode"
)

// ParseEdgeList reads a whitespace-separated edge list, one edge per line.
// Lines starting with '#' or '%' are comments. Endpoints may be arbitrary
// string tokens; they are interned into dense node ids in first-seen order
// and kept as labels. An optional third numeric column is an edge weight.
//
// Weight rule for mixed files: if any line carries a weight, the whole
// graph is weighted and every bare 2-column line means weight 1.0 —
// regardless of whether the bare line appears before or after the first
// weighted one. Repeated edge lines overwrite: the last line mentioning an
// edge decides its weight. A weight must be finite and non-negative: a NaN
// or an infinity would poison w_G and with it every score on the graph.
func ParseEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	ids := make(map[string]Node)
	var labels []string
	intern := func(tok string) Node {
		if id, ok := ids[tok]; ok {
			return id
		}
		id := Node(len(labels))
		ids[tok] = id
		labels = append(labels, tok)
		return id
	}
	b := NewBuilder(0)
	anyWeighted := false
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			return nil, fmt.Errorf("graph: line %d: want at least 2 fields, got %d", lineNo, len(f))
		}
		u, v := intern(f[0]), intern(f[1])
		if len(f) >= 3 {
			w, err := ParseWeight(f[2])
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
			}
			b.SetWeight(u, v, w)
			anyWeighted = true
		} else {
			b.AddEdge(u, v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: reading edge list: %v", err)
	}
	// Whether the file is weighted is only known now, and the tracked
	// flag, not len(b.ew), decides: bare re-adds may have reset every
	// recorded weight, and the file is weighted regardless. Build then
	// packs an explicit 1.0 for every edge whose last record was a bare
	// line (AddEdge resets any earlier weight, so last-wins already held
	// per line and the parse stays streaming).
	b.weighted = anyWeighted
	b.SetLabels(labels)
	return b.Build(), nil
}

// ParseWeight reads an edge-weight token for the text parsers (edge
// lists, the /apply update stream, the CLI's -updates file). A weight is
// a finite, non-negative number: strconv accepts "NaN" and "-Inf", and one
// such weight in a snapshot turns w_G, and every score normalized by it,
// into NaN for good.
func ParseWeight(tok string) (float64, error) {
	w, err := strconv.ParseFloat(tok, 64)
	if err != nil {
		return 0, fmt.Errorf("bad weight %q: %v", tok, err)
	}
	if !validWeight(w) {
		return 0, fmt.Errorf("bad weight %q: want a finite, non-negative number", tok)
	}
	return w, nil
}

// validWeight is the one rule for a storable edge weight: finite and
// non-negative (false for NaN).
func validWeight(w float64) bool { return w >= 0 && !math.IsInf(w, 1) }

// ErrBadWeight is wrapped by CheckDeltas' rejections.
var ErrBadWeight = errors.New("graph: bad edge weight")

// CheckDeltas applies ParseWeight's rule to a batch built in code rather
// than parsed: every weight an op would store must be finite and
// non-negative. MergeCSR itself does not filter — a write-ahead log
// replays to the bytes it recorded — so whoever admits a batch (the
// engine's Apply) checks it first.
func CheckDeltas(ops []Delta) error {
	for i, d := range ops {
		if (d.Op == DeltaAddEdge || d.Op == DeltaSetWeight) && !validWeight(d.W) {
			return fmt.Errorf("%w: op %d gives edge (%d,%d) weight %v, want a finite, non-negative number", ErrBadWeight, i, d.U, d.V, d.W)
		}
	}
	return nil
}

// writableLabel returns u's label, or an error naming it when the text
// formats cannot hold it: ParseEdgeList and ParseCommunities split lines
// on whitespace and skip lines that start with '#' or '%', so an empty
// label, one with whitespace in it, or one with such a first character
// would be written as a file that parses to a different graph.
func writableLabel(g *Graph, u Node) (string, error) {
	l := g.Label(u)
	if l == "" || l[0] == '#' || l[0] == '%' || strings.IndexFunc(l, unicode.IsSpace) >= 0 {
		return "", fmt.Errorf("graph: label %q of node %d cannot be written: empty, containing whitespace, or starting with '#' or '%%'", l, u)
	}
	return l, nil
}

// WriteEdgeList writes g as "u v" lines using labels when present. A
// label that would not read back as the same token is an error (see
// writableLabel), not a silently different file.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	var err error
	g.EdgesW(func(u, v Node, wt float64) bool {
		var lu, lv string
		if lu, err = writableLabel(g, u); err != nil {
			return false
		}
		if lv, err = writableLabel(g, v); err != nil {
			return false
		}
		if g.Weighted() {
			_, err = fmt.Fprintf(bw, "%s %s %g\n", lu, lv, wt)
		} else {
			_, err = fmt.Fprintf(bw, "%s %s\n", lu, lv)
		}
		return err == nil
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// ParseCommunities reads a ground-truth community file: one community per
// line, whitespace-separated member tokens resolved against the graph's
// labels (or decimal ids for unlabeled graphs). Unknown tokens are an error.
func ParseCommunities(r io.Reader, g *Graph) ([][]Node, error) {
	byLabel := make(map[string]Node, g.NumNodes())
	for u := 0; u < g.NumNodes(); u++ {
		byLabel[g.Label(Node(u))] = Node(u)
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	var comms [][]Node
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		var c []Node
		for _, tok := range strings.Fields(line) {
			u, ok := byLabel[tok]
			if !ok {
				return nil, fmt.Errorf("graph: communities line %d: unknown node %q", lineNo, tok)
			}
			c = append(c, u)
		}
		slices.Sort(c)
		comms = append(comms, c)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: reading communities: %v", err)
	}
	return comms, nil
}

// WriteCommunities writes one community per line using node labels, with
// WriteEdgeList's rule for labels that would not read back.
func WriteCommunities(w io.Writer, g *Graph, comms [][]Node) error {
	bw := bufio.NewWriter(w)
	for _, c := range comms {
		for i, u := range c {
			if i > 0 {
				if _, err := bw.WriteString(" "); err != nil {
					return err
				}
			}
			l, err := writableLabel(g, u)
			if err != nil {
				return err
			}
			if _, err := bw.WriteString(l); err != nil {
				return err
			}
		}
		if _, err := bw.WriteString("\n"); err != nil {
			return err
		}
	}
	return bw.Flush()
}
