// Package refstate translates between the model in internal/dmcsref and
// the engine's types, for the tests that drive the engine, the HTTP tier
// and dmcsd against the model. The model stays stdlib-only; this package
// is the one place that knows both sides.
package refstate

import (
	"dmcs/internal/dmcsref"
	"dmcs/internal/graph"
	"dmcs/internal/wal"
)

// Graph builds the n-node graph with the given edges.
func Graph(n int, edges []dmcsref.Edge) *graph.Graph {
	b := graph.NewBuilder(n)
	for _, e := range edges {
		b.SetWeight(graph.Node(e.U), graph.Node(e.V), e.W)
	}
	return b.Build()
}

// Decode reads a state image, as Engine.EncodeState writes it and
// dmcsd's /debug/state serves it, in the model's terms.
func Decode(img []byte) (dmcsref.State, error) {
	cp, err := wal.DecodeCheckpoint(img)
	if err != nil {
		return dmcsref.State{}, err
	}
	st := dmcsref.State{Epoch: cp.Epoch, NextKey: cp.NextCompKey, WG: cp.CSR.TotalWeight()}
	cp.CSR.Edges(func(u, v graph.Node, w float64) bool {
		st.Edges = append(st.Edges, dmcsref.Edge{U: int(u), V: int(v), W: w})
		return true
	})
	for u, id := range cp.CompID {
		st.Degree = append(st.Degree, cp.CSR.WeightedDegree(graph.Node(u)))
		st.CompOf = append(st.CompOf, int(id))
	}
	for i, key := range cp.CompKeys {
		st.Comps = append(st.Comps, dmcsref.Comp{Key: key, Ver: cp.CompVers[i], WG: cp.CompWG[i]})
	}
	return st, nil
}

// Check decodes img and hands it to check, one of the model's state
// rules (Model.CheckState or Model.Recovered).
func Check(check func(dmcsref.State) error, img []byte) error {
	st, err := Decode(img)
	if err != nil {
		return err
	}
	return check(st)
}
