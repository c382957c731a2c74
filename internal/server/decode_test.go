package server

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"unicode"

	"dmcs/internal/dmcs"
	"dmcs/internal/engine"
	"dmcs/internal/graph"
)

// TestDecodeQuery pins the /query wire format body by body: which
// decoder reads it (fast: the recogniser accepts; otherwise it declines
// and encoding/json decides), what it means, and the exact text of every
// refusal — all of which encoding/json words, whichever decoder ran first.
func TestDecodeQuery(t *testing.T) {
	ok := []struct {
		body    string
		fast    bool
		nodes   []graph.Node
		variant dmcs.Variant
		timeout int64
		noStale bool
	}{
		{`{"nodes":[123]}`, true, []graph.Node{123}, dmcs.VariantFPA, 0, false},
		{" {\t\"nodes\" : [ 1 ,\n2 ] \r} \n", true, []graph.Node{1, 2}, dmcs.VariantFPA, 0, false},
		{`{"no_stale":true,"timeout_ms":250,"variant":"nCa-dR","nodes":[0,67108864]}`, true, []graph.Node{0, maxNodeID}, dmcs.VariantNCADR, 250, true},
		{`{"nodes":[7],"variant":"","no_stale":false,"timeout_ms":0}`, true, []graph.Node{7}, dmcs.VariantFPA, 0, false},
		{`{"nodes":[7],"variant":"fpadmg"}`, true, []graph.Node{7}, dmcs.VariantFPADMG, 0, false},
		// encoding/json's language beyond the canonical spelling.
		{`{"NODES":[1],"Variant":"NCA"}`, false, []graph.Node{1}, dmcs.VariantNCA, 0, false},
		{`{"nodes":[1],"nodes":[2]}`, false, []graph.Node{2}, dmcs.VariantFPA, 0, false},
		{`{"nodes":[1],"variant":"\u004eCA"}`, false, []graph.Node{1}, dmcs.VariantNCA, 0, false},
		{`{"nodes":[1],"variant":null,"timeout_ms":null}`, false, []graph.Node{1}, dmcs.VariantFPA, 0, false},
		{`{"nodes":[1],"timeout_ms":-0}`, false, []graph.Node{1}, dmcs.VariantFPA, 0, false},
		{`{"nodes":[1]}]`, false, []graph.Node{1}, dmcs.VariantFPA, 0, false}, // Decoder.More stops at a closer
	}
	for _, tc := range ok {
		_, _, fast := recogniseQuery([]byte(tc.body), 4, nil)
		req, v, err := decodeQuery([]byte(tc.body), 4, nil)
		if err != nil {
			t.Errorf("%s: unexpected error %v", tc.body, err)
			continue
		}
		if fast != tc.fast {
			t.Errorf("%s: recogniser accepted = %v, want %v", tc.body, fast, tc.fast)
		}
		if !reflect.DeepEqual(req.Nodes, tc.nodes) || v != tc.variant || req.TimeoutMS != tc.timeout || req.NoStale != tc.noStale {
			t.Errorf("%s: decoded %+v variant %v", tc.body, req, v)
		}
	}

	// fast rows break a cap, which is checked after either decoder.
	bad := []struct {
		body string
		fast bool
		want string
	}{
		{``, false, "server: empty request body"},
		{" \n", false, "server: empty request body"},
		{`null`, false, `server: query wants a non-empty "nodes" array`},
		{`{}`, true, `server: query wants a non-empty "nodes" array`},
		{`{"nodes":[]}`, false, `server: query wants a non-empty "nodes" array`},
		{`{"variant":"NCA"}`, true, `server: query wants a non-empty "nodes" array`},
		{`{"nodes":[1,2,3,4,5]}`, false, "server: query has 5 nodes, cap is 4"},
		{`{"nodes":[67108865]}`, true, "server: node id 67108865 out of range [0,67108864]"},
		{`{"nodes":[-1]}`, false, "server: node id -1 out of range [0,67108864]"},
		{`{"nodes":[1],"timeout_ms":-5}`, false, "server: negative timeout_ms -5"},
		{`{"nodes":[1],"variant":"QUANTUM"}`, true, `server: unknown variant "QUANTUM" (want FPA, NCA, NCA-DR, FPA-DMG)`},
		{`{"nodes":[1],"variant":"NCA\rDR"}`, false, `server: unknown variant "NCA\rDR" (want FPA, NCA, NCA-DR, FPA-DMG)`},
		{`{"nodes":[1]} x`, false, "server: trailing data after query JSON"},
		{`{"nodes":[1]}{"nodes":[2]}`, false, "server: trailing data after query JSON"},
		{`{"nodes":[01]}`, false, "server: bad query JSON: invalid character '1' after array element"},
		{`{"nodes":[1.5]}`, false, "server: bad query JSON: json: cannot unmarshal number 1.5 into Go struct field queryRequest.nodes of type int32"},
		{`{"nodes":[1e0]}`, false, "server: bad query JSON: json: cannot unmarshal number 1e0 into Go struct field queryRequest.nodes of type int32"},
		{`{"nodes":[2147483648]}`, false, "server: bad query JSON: json: cannot unmarshal number 2147483648 into Go struct field queryRequest.nodes of type int32"},
		{`{"nodes":[1234567890123456]}`, false, "server: bad query JSON: json: cannot unmarshal number 1234567890123456 into Go struct field queryRequest.nodes of type int32"},
		{`{"nodes":[1],"limit":3}`, false, `server: bad query JSON: json: unknown field "limit"`},
		{`{"nodes":[1],"no_stale":1}`, false, "server: bad query JSON: json: cannot unmarshal number into Go struct field queryRequest.no_stale of type bool"},
		{`{"nodes":[1]`, false, "server: bad query JSON: unexpected EOF"},
	}
	for _, tc := range bad {
		if _, _, fast := recogniseQuery([]byte(tc.body), 4, nil); fast != tc.fast {
			t.Errorf("%s: recogniser accepted = %v, want %v", tc.body, fast, tc.fast)
		}
		if _, _, err := decodeQuery([]byte(tc.body), 4, nil); err == nil || err.Error() != tc.want {
			t.Errorf("%s: error %v, want %s", tc.body, err, tc.want)
		}
	}

	// variantByName folds ASCII letters only; that is all strings.ToUpper
	// ever folded onto these names.
	for r := rune(0x80); r <= unicode.MaxRune; r++ {
		if up := unicode.ToUpper(r); up < 0x80 && strings.ContainsRune("FPANCDRMG-", up) {
			t.Fatalf("%U upper-cases to %q: variantByName must fold it too", r, up)
		}
	}
}

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
		{"setw 1 2 0\nadd 1 2 -0\n", batch(func(b *engine.Batch) {
			b.SetWeight(1, 2, 0)
			b.SetWeight(1, 2, math.Copysign(0, -1))
		})},
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
		// strconv reads all of these; one of them in a snapshot turns w_G
		// into NaN for every later query of the component.
		{"setw 1 2 NaN\n", 0, `server: line 1: bad weight "NaN": want a finite, non-negative number`},
		{"add 1 2\nadd 3 4 -Inf\n", 0, `server: line 2: bad weight "-Inf": want a finite, non-negative number`},
		{"setw 1 2 +inf\n", 0, `server: line 1: bad weight "+inf": want a finite, non-negative number`},
		{"add 1 2 -0.5\n", 0, `server: line 1: bad weight "-0.5": want a finite, non-negative number`},
		{"add 1 2 1e999\n", 0, `server: line 1: bad weight "1e999": strconv.ParseFloat: parsing "1e999": value out of range`},
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
