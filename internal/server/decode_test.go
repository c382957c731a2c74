package server

import (
	"reflect"
	"strings"
	"testing"

	"dmcs/internal/engine"
)

// TestParseUpdateOps pins the /apply wire format line by line: what
// stages which op, how lines are split and trimmed, and the exact text
// of every refusal (clients and the chaos suite match on it).
func TestParseUpdateOps(t *testing.T) {
	batch := func(stage func(b *engine.Batch)) engine.Batch {
		var b engine.Batch
		stage(&b)
		return b
	}
	ok := []struct {
		body string
		want engine.Batch
	}{
		{"", engine.Batch{}},
		{"\n\n# only a comment\n   \t\n", engine.Batch{}},
		{"add 1 2\nsetw 2 3 0.5\ndel 1 2\nnode 4 5\n", batch(func(b *engine.Batch) {
			b.AddEdge(1, 2)
			b.SetWeight(2, 3, 0.5)
			b.RemoveEdge(1, 2)
			b.AddNode(4)
			b.AddNode(5)
		})},
		// CRLF endings, mixed case, tabs, an indented comment, a weighted
		// add, ignored trailing operands, and no final newline.
		{"  ADD\t7 8  \r\n  # note\r\nSetW 1 2 3 junk\r\nadd 1 2 2.5\nDeL 9 8 extra", batch(func(b *engine.Batch) {
			b.AddEdge(7, 8)
			b.SetWeight(1, 2, 3)
			b.SetWeight(1, 2, 2.5)
			b.RemoveEdge(9, 8)
		})},
	}
	for _, tc := range ok {
		got, err := parseUpdateOps([]byte(tc.body), 0)
		if err != nil {
			t.Errorf("%q: unexpected error %v", tc.body, err)
		} else if got.Len() != tc.want.Len() || (got.Len() > 0 && !reflect.DeepEqual(got, tc.want)) {
			t.Errorf("%q: staged %+v, want %+v", tc.body, got, tc.want)
		}
	}

	bad := []struct {
		body   string
		maxOps int
		want   string
	}{
		{"add 1\n", 0, "server: line 1: add wants 2 node ids"},
		{"\nSETW 1\n", 0, "server: line 2: setw wants 2 node ids"},
		{"setw 1 2\n", 0, "server: line 1: setw wants an explicit weight"},
		{"del 1\n", 0, "server: line 1: del wants 2 node ids"},
		{"node\n", 0, "server: line 1: node wants at least 1 id"},
		{"# c\nApply\n", 0, `server: line 2: unknown op "apply" (want add/setw/del/node)`},
		{"add -1 2\n", 0, `server: line 1: bad node id "-1": strconv.ParseUint: parsing "-1": invalid syntax`},
		{"del 1 x\n", 0, `server: line 1: bad node id "x": strconv.ParseUint: parsing "x": invalid syntax`},
		{"add 1 67108865\n", 0, "server: line 1: node id 67108865 above cap 67108864"},
		{"add 1 2 heavy\n", 0, `server: line 1: bad weight "heavy": strconv.ParseFloat: parsing "heavy": invalid syntax`},
		{"add 1 2\nadd 2 3\nadd 3 4\n", 2, "server: line 3: batch exceeds 2 ops"},
		{"node 1 2 3 4\n", 3, "server: line 1: batch exceeds 3 ops"},
		{"add 1 2 " + strings.Repeat("9", maxUpdateLineBytes), 0, "server: reading update body: bufio.Scanner: token too long"},
	}
	for _, tc := range bad {
		_, err := parseUpdateOps([]byte(tc.body), tc.maxOps)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%.40q: error %v, want %s", tc.body, err, tc.want)
		}
	}
}

// BenchmarkParseUpdateOps is the decode cost of the benchmark's /apply
// body: eight edge lines.
func BenchmarkParseUpdateOps(b *testing.B) {
	body := []byte(strings.Repeat("add 6405 6412\n", 8))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := parseUpdateOps(body, 0); err != nil {
			b.Fatal(err)
		}
	}
}
