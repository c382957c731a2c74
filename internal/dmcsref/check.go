package dmcsref

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// The checker's four rules, as Model methods. A test translates what
// the system under test returned into an Answer or a State and calls:
//
//  1. Check: every complete answer equals the model at the version its
//     component had at some epoch no older than the newest Apply
//     acknowledged before the query was sent — community and
//     Float64bits(score), or the same refusal.
//  2. Check, for an answer that reports its version: stale is set iff
//     that version is superseded, and a stale answer is exact for the
//     version it names. Where rule 4 applies, a stale answer also comes
//     from no older version than the newest one the same query was
//     answered at: the cache still holds that answer, and a stale probe
//     tries the newest ancestor first.
//  3. Recovered: a recovered state image equals the model at the
//     recovered epoch, which must keep every acknowledged Apply.
//     (CheckState holds a live image to the same comparison.)
//  4. CheckHit (in-process only): a repeated query on a component that
//     no Apply has touched since it was answered is a cache hit.

// Answer is what the system under test returned for one query. Err is
// nil, or one of the model's errors; ErrInvalid matches all three.
// Versioned says the read reported the component version it answered at
// (Version) and whether it flagged the answer stale (Stale).
type Answer struct {
	Err       error
	Community []int
	Score     float64
	Versioned bool
	Stale     bool
	Version   uint64
}

func (a answer) matches(got Answer) bool {
	if a.err != nil || got.Err != nil {
		return a.err != nil && got.Err != nil && errors.Is(a.err, got.Err)
	}
	return slices.Equal(a.res.Community, got.Community) && math.Float64bits(a.res.Score) == math.Float64bits(got.Score)
}

// Check holds one complete answer for q to rules 1 and 2. from is the
// newest epoch acknowledged before q was sent; the newest epoch the model
// holds bounds the window from above.
func (m *Model) Check(q Query, got Answer, from uint64) error {
	nodes := normalize(q.Nodes)
	m.mu.Lock()
	window := slices.Clone(m.hist[min(from, uint64(len(m.hist)-1)):])
	var stale *epoch
	if got.Versioned && got.Stale && got.Version < uint64(len(m.hist)) {
		stale = m.hist[got.Version]
	}
	answered := m.hits[fmt.Sprint(nodes, q.Peel)]
	m.mu.Unlock()
	if got.Versioned && got.Stale {
		// A stale answer is exact for the version it names, and that
		// version was superseded somewhere in the window.
		if stale == nil {
			return fmt.Errorf("query %v: stale answer at version %d, which the model never reached", nodes, got.Version)
		}
		if v, err := stale.version(nodes); err != nil || v != stale {
			return fmt.Errorf("query %v: stale answer at version %d, which is no version of its component", nodes, got.Version)
		}
		if !m.answerAt(stale, nodes, q.Peel).matches(got) {
			return fmt.Errorf("query %v %+v: stale answer %v (score %v) is not the model's at version %d", nodes, q.Peel, got.Community, got.Score, got.Version)
		}
		if answered != nil && answered.ep > got.Version {
			return fmt.Errorf("query %v %+v: stale answer at version %d, but the cache holds its answer at the newer version %d", nodes, q.Peel, got.Version, answered.ep)
		}
		for _, at := range window {
			if v, _ := at.version(nodes); v != stale {
				return nil
			}
		}
		return fmt.Errorf("query %v: answer flagged stale at version %d, which is current", nodes, got.Version)
	}
	var seen []*epoch
	for _, at := range window {
		v, err := at.version(nodes)
		if err != nil {
			if (answer{err: err}).matches(got) {
				return nil
			}
			continue
		}
		if slices.Contains(seen, v) {
			continue
		}
		seen = append(seen, v)
		if got.Versioned && got.Version != v.ep {
			continue
		}
		if m.answerAt(v, nodes, q.Peel).matches(got) {
			return nil
		}
	}
	return fmt.Errorf("query %v %+v: answer %v (score %v, err %v) matches the model at no epoch from %d on",
		nodes, q.Peel, got.Community, got.Score, got.Err, from)
}

// CheckHit holds a complete answer to rule 4: hit says whether the query
// was a cache hit, and it must be if the same query was answered before
// at the version its component still has. Call it only where the cache
// cannot have evicted an entry: the version it records is also what
// rule 2 holds a later stale answer to.
func (m *Model) CheckHit(q Query, got Answer, hit bool) error {
	if got.Err != nil {
		return nil
	}
	nodes := normalize(q.Nodes)
	key := fmt.Sprint(nodes, q.Peel)
	m.mu.Lock()
	defer m.mu.Unlock()
	v, err := m.hist[len(m.hist)-1].version(nodes)
	if err != nil {
		return fmt.Errorf("query %v: answered, but the model refuses it: %v", nodes, err)
	}
	if m.hits == nil {
		m.hits = map[string]*epoch{}
	}
	prev, ok := m.hits[key]
	m.hits[key] = v
	if ok && prev == v && !hit {
		return fmt.Errorf("query %v %+v: repeated on a component untouched since it was answered, and missed the cache", nodes, q.Peel)
	}
	return nil
}

// Recovered holds a recovered state image to rule 3. The recovered epoch
// must keep every acknowledged Apply and be one the model reached; the
// model then drops every later epoch, which the crash lost unacknowledged,
// and forgets what rule 4 remembered, since recovery starts cold.
func (m *Model) Recovered(got State) error {
	m.mu.Lock()
	if got.Epoch < m.acked {
		m.mu.Unlock()
		return fmt.Errorf("recovered epoch %d lost acknowledged epoch %d", got.Epoch, m.acked)
	}
	if got.Epoch < uint64(len(m.hist)) {
		m.hist = m.hist[:got.Epoch+1]
		m.hits = nil
	}
	m.mu.Unlock()
	return m.CheckState(got)
}

// CheckState compares a state image with the model at the image's epoch.
func (m *Model) CheckState(got State) error {
	m.mu.Lock()
	if got.Epoch >= uint64(len(m.hist)) {
		m.mu.Unlock()
		return fmt.Errorf("state at epoch %d, but no batch produced it (newest %d)", got.Epoch, len(m.hist)-1)
	}
	want := m.hist[got.Epoch].state(got.Epoch)
	m.mu.Unlock()
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"next component key", got.NextKey, want.NextKey},
		{"edges", got.Edges, want.Edges},
		{"weighted degrees", got.Degree, want.Degree},
		{"w_G", got.WG, want.WG},
		{"component of each node", got.CompOf, want.CompOf},
		{"component records", got.Comps, want.Comps},
	} {
		// %x prints floats as exact hexadecimal, so equal text is equal bits.
		if g, w := fmt.Sprintf("%x", f.got), fmt.Sprintf("%x", f.want); g != w {
			return fmt.Errorf("state at epoch %d: %s %.300s, model %.300s", got.Epoch, f.name, g, w)
		}
	}
	return nil
}
