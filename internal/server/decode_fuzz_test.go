package server

import (
	"reflect"
	"testing"

	"dmcs/internal/graph"
)

// The decoders are the server's hostile-input boundary: every byte a
// client can send flows through decodeQuery or parseUpdateOps before
// anything touches the engine. The fuzz contract is (a) never panic,
// (b) when a decode succeeds, every cap the decoder promises actually
// holds — so downstream code may trust them without re-checking — and
// (c) for /query, the recogniser only ever accepts what encoding/json
// accepts, with the same meaning. (c) is one-sided on purpose: a body the
// recogniser declines is encoding/json's to judge, whatever it says.

func FuzzDecodeQuery(f *testing.F) {
	f.Add([]byte(`{"nodes":[1,2,3]}`))
	f.Add([]byte(`{"nodes":[0],"variant":"NCA-DR","timeout_ms":250}`))
	f.Add([]byte(`{"nodes":[7],"no_stale":true}`))
	f.Add([]byte(`{"nodes":[]}`))
	f.Add([]byte(`{"nodes":[-1]}`))
	f.Add([]byte(`{"nodes":[1.5]}`))
	f.Add([]byte(`{"nodes":[1],"variant":"QUANTUM"}`))
	f.Add([]byte(`{"nodes":[1]}{"nodes":[2]}`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	f.Add([]byte(`{"nodes":[99999999999999999999]}`))
	// Where the recogniser's language ends: each of these is one step
	// outside (or just inside) the canonical spelling.
	f.Add([]byte(` { "nodes" : [ 1 , 2 ] } `))
	f.Add([]byte(`{"nodes":[01]}`))
	f.Add([]byte(`{"nodes":[1],"nodes":[2]}`))
	f.Add([]byte(`{"NODES":[1]}`))
	f.Add([]byte(`{"nodes":[1],"timeout_ms":-0}`))
	f.Add([]byte(`{"nodes":[1.0]}`))
	f.Add([]byte(`{"nodes":[1]} x`))
	f.Add([]byte(`{"nodes":[1234567890123456]}`))
	f.Add([]byte(`{"nodes":[1],"variant":"nCa"}`))
	f.Add([]byte(`{"nodes":[1],"variant":"NCA\rDR"}`))
	f.Add([]byte(`{"nodes":[1],"no_stale":false,"timeout_ms":0,"variant":""}`))
	const maxNodes = 64
	f.Fuzz(func(t *testing.T, body []byte) {
		if fast, name, ok := recogniseQuery(body, maxNodes, make([]graph.Node, 0, 4)); ok {
			ref, err := decodeQueryJSON(body)
			if err != nil {
				t.Fatalf("recogniser accepted %q, encoding/json says %v", body, err)
			}
			fast.Variant = string(name)
			if !reflect.DeepEqual(fast, ref) {
				t.Fatalf("%q: recogniser read %+v, encoding/json %+v", body, fast, ref)
			}
		}
		req, _, err := decodeQuery(body, maxNodes, nil)
		if err != nil {
			return
		}
		if len(req.Nodes) == 0 || len(req.Nodes) > maxNodes {
			t.Fatalf("accepted query with %d nodes (cap %d)", len(req.Nodes), maxNodes)
		}
		for _, u := range req.Nodes {
			if u < 0 || u > maxNodeID {
				t.Fatalf("accepted out-of-range node id %d", u)
			}
		}
		if req.TimeoutMS < 0 {
			t.Fatalf("accepted negative timeout_ms %d", req.TimeoutMS)
		}
	})
}

func FuzzParseUpdateOps(f *testing.F) {
	f.Add([]byte("add 1 2\n"))
	f.Add([]byte("add 1 2 0.5\nsetw 2 3 2\ndel 1 2\nnode 4 5 6\n"))
	f.Add([]byte("# comment\n\n  add\t7 8  \n"))
	f.Add([]byte("setw 1 2\n"))
	f.Add([]byte("del 1\n"))
	f.Add([]byte("apply\n"))
	f.Add([]byte("add 1 99999999999\n"))
	f.Add([]byte("add -1 2\n"))
	f.Add([]byte("node 1 2 3 4 5 6 7 8 9 10\n"))
	f.Add([]byte("setw 1 2 NaN\nadd 3 4 -Inf\n"))
	const maxOps = 128
	f.Fuzz(func(t *testing.T, body []byte) {
		b, err := parseUpdateOps(body, maxOps)
		if err != nil {
			return
		}
		if b.Len() > maxOps {
			t.Fatalf("accepted batch of %d ops (cap %d)", b.Len(), maxOps)
		}
	})
}
