package dmcsref

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
)

// OpKind is the kind of one staged mutation.
type OpKind uint8

const (
	AddEdge    OpKind = iota // insert (U,V) with weight 1, or reset its weight to 1
	SetWeight                // set (U,V)'s weight to W, inserting the edge if absent
	RemoveEdge               // delete (U,V); an absent edge is a no-op
	AddNode                  // ensure node U exists
)

// Op is one staged mutation, as engine.Batch stages it. Edge ops with an
// endpoint beyond the node count grow the graph, except RemoveEdge.
type Op struct {
	Kind OpKind
	U, V int
	W    float64
}

// String spells op as a line of the update stream dmcsd's /apply reads.
func (op Op) String() string {
	switch op.Kind {
	case AddEdge:
		return fmt.Sprintf("add %d %d", op.U, op.V)
	case SetWeight:
		return fmt.Sprintf("setw %d %d %v", op.U, op.V, op.W)
	case RemoveEdge:
		return fmt.Sprintf("del %d %d", op.U, op.V)
	}
	return fmt.Sprintf("node %d", op.U)
}

// ErrInvalid is the class of every query the model refuses; the three
// errors below wrap it, so a caller that cannot tell them apart reports
// ErrInvalid and still matches.
var (
	ErrInvalid      = errors.New("dmcsref: invalid query")
	ErrEmpty        = fmt.Errorf("%w: no query nodes", ErrInvalid)
	ErrRange        = fmt.Errorf("%w: query node out of range", ErrInvalid)
	ErrDisconnected = fmt.Errorf("%w: query nodes in different components", ErrInvalid)
)

// Comp is one component's version record: a stable identity, the epoch
// the component last changed at (its version), and w_G as it was then.
type Comp struct {
	Key, Ver uint64
	WG       float64
}

// epoch is the graph at one epoch: immutable once built, except memo.
type epoch struct {
	ep      uint64
	n       int
	w       map[[2]int]float64 // edge (u < v) -> weight
	g       *refGraph
	compOf  []int   // node -> component, numbered in order of smallest member
	members [][]int // component -> members ascending
	comps   []Comp
	vers    []*epoch // component -> the epoch its version names
	nextKey uint64
	memo    map[string]answer // answers of queries whose version this is; under Model.mu
}

type answer struct {
	res Result
	err error
}

// Model is the graph as the engine must hold it. Every applied batch adds
// an epoch, and the model keeps them all: the answer for a component at
// version v is Search on the graph as it was at epoch v, which is what
// the engine's frozen w_G promises. A component keeps its version record
// across an epoch exactly when its members and every edge at them are
// unchanged; any other component gets a fresh identity, the epoch as its
// version and that epoch's w_G. Fresh identities are issued in component
// order from a counter that never goes back.
//
// The model also keeps the newest acknowledged epoch: an Apply the system
// acknowledged is durable, so no crash may lose it. A Model is safe for
// concurrent use: one writer applying while readers check.
type Model struct {
	mu    sync.Mutex
	hist  []*epoch // hist[e] is the graph at epoch e
	acked uint64
	hits  map[string]*epoch // query -> version it was last answered at (rules 2 and 4)
}

// NewModel returns the model of the n-node graph with the given edges at
// epoch 0.
func NewModel(n int, edges []Edge) *Model {
	w := make(map[[2]int]float64, len(edges))
	for _, e := range edges {
		w[edgeKey(e.U, e.V)] = e.W
	}
	return &Model{hist: []*epoch{newEpoch(nil, n, w, 0)}}
}

func edgeKey(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}

// newEpoch builds epoch ep of the n-node graph w, whose previous epoch is
// prev (nil for the first).
func newEpoch(prev *epoch, n int, w map[[2]int]float64, ep uint64) *epoch {
	edges := make([]Edge, 0, len(w))
	for k, wt := range w {
		edges = append(edges, Edge{k[0], k[1], wt})
	}
	s := &epoch{ep: ep, n: n, w: w, g: newRefGraph(n, edges), compOf: make([]int, n), memo: map[string]answer{}}
	if prev != nil {
		s.nextKey = prev.nextKey
	}
	for u := range s.compOf {
		s.compOf[u] = -1
	}
	for root := range s.compOf {
		if s.compOf[root] >= 0 {
			continue
		}
		id := len(s.members)
		s.compOf[root] = id
		members := []int{root}
		for head := 0; head < len(members); head++ {
			for _, a := range s.g.adj[members[head]] {
				if s.compOf[a.to] < 0 {
					s.compOf[a.to] = id
					members = append(members, a.to)
				}
			}
		}
		slices.Sort(members)
		s.members = append(s.members, members)
		if pid, ok := prev.carries(s, members); ok {
			s.comps = append(s.comps, prev.comps[pid])
			s.vers = append(s.vers, prev.vers[pid])
			continue
		}
		s.comps = append(s.comps, Comp{Key: s.nextKey, Ver: ep, WG: s.g.wG})
		s.vers = append(s.vers, s)
		s.nextKey++
	}
	return s
}

// carries returns the id prev gave the component members of next when
// prev had the same component with the same edges at every member.
func (prev *epoch) carries(next *epoch, members []int) (int, bool) {
	if prev == nil || members[0] >= prev.n {
		return 0, false
	}
	id := prev.compOf[members[0]]
	if !slices.Equal(prev.members[id], members) {
		return 0, false
	}
	for _, u := range members {
		if !slices.Equal(prev.g.adj[u], next.g.adj[u]) {
			return 0, false
		}
	}
	return id, true
}

// Apply applies one batch: ops in order, so the last op on an edge wins,
// self-loops ignored. It returns the epoch the batch leaves the graph at,
// which stays the current one when the batch changes nothing.
func (m *Model) Apply(ops []Op) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	cur := m.hist[len(m.hist)-1]
	n, w := cur.n, maps.Clone(cur.w)
	for _, op := range ops {
		switch {
		case op.Kind == AddNode:
			n = max(n, op.U+1)
		case op.U == op.V:
		case op.Kind == RemoveEdge:
			delete(w, edgeKey(op.U, op.V))
		default:
			n = max(n, op.U+1, op.V+1)
			wt := op.W
			if op.Kind == AddEdge {
				wt = 1
			}
			w[edgeKey(op.U, op.V)] = wt
		}
	}
	if n == cur.n && maps.Equal(w, cur.w) {
		return uint64(len(m.hist) - 1)
	}
	m.hist = append(m.hist, newEpoch(cur, n, w, uint64(len(m.hist))))
	return uint64(len(m.hist) - 1)
}

// Undo drops the newest epoch: for a caller whose Apply was refused
// after the model had taken it.
func (m *Model) Undo() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.hist) > 1 {
		m.hist = m.hist[:len(m.hist)-1]
	}
}

// Ack records that the system acknowledged the Apply that produced epoch
// e: every later answer must be at least that new, and every recovery
// must keep it.
func (m *Model) Ack(e uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.acked = max(m.acked, e)
}

// Acked returns the newest acknowledged epoch.
func (m *Model) Acked() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.acked
}

// normalize returns q's nodes sorted and deduplicated, as the engine
// admits them.
func normalize(q []int) []int {
	q = slices.Clone(q)
	slices.Sort(q)
	return slices.Compact(q)
}

// version returns the epoch that holds the version of nodes' component at
// at, or the error the query gets there. nodes are normalized.
func (at *epoch) version(nodes []int) (*epoch, error) {
	if len(nodes) == 0 {
		return nil, ErrEmpty
	}
	for _, u := range nodes {
		if u < 0 || u >= at.n {
			return nil, ErrRange
		}
	}
	c := at.compOf[nodes[0]]
	for _, u := range nodes[1:] {
		if at.compOf[u] != c {
			return nil, ErrDisconnected
		}
	}
	return at.vers[c], nil
}

// answerAt returns Search's answer for nodes on the graph of epoch v,
// memoised on v.
func (m *Model) answerAt(v *epoch, nodes []int, p Peel) answer {
	key := fmt.Sprint(nodes, p)
	m.mu.Lock()
	a, ok := v.memo[key]
	m.mu.Unlock()
	if !ok {
		a = answer{res: v.g.search(nodes, p)}
		m.mu.Lock()
		v.memo[key] = a
		m.mu.Unlock()
	}
	return a
}

// State is a graph state image in the model's terms: what the engine's
// EncodeState holds, decoded. Edges run u < v ascending; Degree is every
// node's weighted degree, WG the total edge weight; CompOf maps each node
// to its component and Comps holds the component records.
type State struct {
	Epoch, NextKey uint64
	Edges          []Edge
	Degree         []float64
	WG             float64
	CompOf         []int
	Comps          []Comp
}

func (s *epoch) state(ep uint64) State {
	st := State{Epoch: ep, NextKey: s.nextKey, Degree: s.g.d, WG: s.g.wG, CompOf: s.compOf, Comps: s.comps}
	for u, row := range s.g.adj {
		for _, a := range row {
			if u < a.to {
				st.Edges = append(st.Edges, Edge{u, a.to, a.w})
			}
		}
	}
	return st
}
