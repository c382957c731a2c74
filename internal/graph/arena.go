package graph

// Arena is a pooled bundle of the scratch memory one community-search
// query needs: the epoch-tagged source-id -> local-id relabelling table,
// double-buffered SubCSR backing stores, CSRView backing arrays, BFS
// dist/queue buffers, and articulation-DFS scratch. An arena is checked
// out per query (internal/engine owns one per worker; internal/dmcs keeps
// a sync.Pool for the one-shot entry points) and reused forever after, so
// steady-state query serving performs zero heap allocations: every buffer
// is grown to the largest component it has served and then recycled.
//
// Arenas are not safe for concurrent use; each in-flight query needs its
// own. Nothing handed back to a caller may alias arena memory — results
// are freshly allocated by the search layer — so recycling an arena can
// never corrupt a previously returned answer. The epoch-tagged table
// makes per-query reset O(1): entries are valid only when their tag
// matches the current epoch, so stale contents from earlier queries are
// unreadable by construction (Poison exploits exactly this contract).
//
// The two sub/view slots exist because peeling needs at most two
// generations of compact state alive at once: the current sub-CSR and the
// one being built from its alive set during geometric re-compaction (or,
// for layer pruning, the phase-1 view and the phase-2 prefix view).
// Slots ping-pong; entering slot i invalidates whatever it held before.
type Arena struct {
	relabel

	subStore [2]subStorage
	subs     [2]SubCSR
	views    [2]CSRView

	dist  [2][]int32
	queue []Node
	nodes [2][]Node // generic node scratch (members list, BFS parents, ...)
	marks [2][]bool // generic per-local-node flags (isQuery, inLayer, ...)
	art   ArtScratch
	resub CSR // ReextractSub's page-table view of the previous generation
}

// relabel is an epoch-tagged source-id -> local-id table (or any
// per-query node mark) with O(1) reset: an entry is valid only while its
// tag equals the current epoch. An Arena embeds one; NewSubCSR borrows a
// pooled one.
type relabel struct {
	epoch uint32
	tag   []uint32 // epoch tags: table[g] valid iff tag[g] == epoch
	table []int32
}

// NewArena returns an empty arena; buffers are sized on first use.
func NewArena() *Arena { return &Arena{} }

// BeginEpoch invalidates every entry of the relabelling/mark table and
// sizes it for source ids in [0, n). O(1) except on growth and on the
// 2^32nd call, when the tags are rezeroed.
func (a *relabel) BeginEpoch(n int) {
	if len(a.tag) < n {
		tag := make([]uint32, n)
		copy(tag, a.tag)
		a.tag = tag
		table := make([]int32, n)
		copy(table, a.table)
		a.table = table
	}
	a.epoch++
	if a.epoch == 0 { // wrapped: stale tags could collide, rezero
		for i := range a.tag {
			a.tag[i] = 0
		}
		a.epoch = 1
	}
}

// Mark tags source id g with the current epoch and associates val with it.
func (a *relabel) Mark(g Node, val int32) {
	a.table[g] = val
	a.tag[g] = a.epoch
}

// Marked reports whether g was marked in the current epoch and, if so,
// its associated value.
func (a *relabel) Marked(g Node) (int32, bool) {
	if int(g) >= len(a.tag) || a.tag[g] != a.epoch {
		return 0, false
	}
	return a.table[g], true
}

// ExtractSub builds the compact relabelled sub-CSR of members (sorted
// ascending, duplicate-free, ids in src's space) into the given slot,
// reusing the slot's backing memory. Neighbors outside the member set are
// dropped, so members need not be component-closed. The returned SubCSR's
// Globals() are the member ids in src's id space. The arena's current
// epoch is consumed to build the relabelling table.
func (a *Arena) ExtractSub(slot int, src *CSR, members []Node) *SubCSR {
	store := &a.subStore[slot]
	dst := &a.subs[slot]
	extractSub(dst, store, src, members, &a.relabel)
	store.global = growNodes(store.global, len(members))
	copy(store.global, members)
	dst.global = store.global
	return dst
}

// ReextractSub is ExtractSub with a sub as the source: re-compaction
// passes the alive subset of the previous generation (local ids of prev,
// which must live in the other slot). The one extraction routine reads
// pages, so prev's flat arrays are presented as a page table cut from
// them — headers only, in arena memory. Globals() come back in prev's id
// space; the caller rewrites them into true source ids through prev.
func (a *Arena) ReextractSub(slot int, prev *SubCSR, members []Node) *SubCSR {
	a.resub.flat = prev.flatCSR
	a.resub.paginate(a.resub.pages[:0])
	return a.ExtractSub(slot, &a.resub, members)
}

// WrapFull points the given slot at src itself: an identity sub over the
// whole snapshot, sharing the arrays of a Contiguous src (nothing is
// copied, and Poison will never scribble on them — the slot's owned store
// is left untouched). Used when the query's component spans the entire
// graph; for a merged src it packs a private copy on every call, so
// per-query callers check Contiguous and extract instead.
func (a *Arena) WrapFull(slot int, src *CSR) *SubCSR {
	dst := &a.subs[slot]
	dst.wrap(src)
	return dst
}

// ViewAll returns the slot's view with every node of sub alive, seeded
// with sub's canonical aggregates.
func (a *Arena) ViewAll(slot int, sub *SubCSR) *CSRView {
	return a.ViewAllWith(slot, sub, sub.compW, sub.compD)
}

// ViewAllWith is ViewAll with explicit w_C / d_S aggregates. Geometric
// re-compaction uses it to carry the incrementally maintained values of
// the previous generation's view into the rebuilt one — recomputing them
// fresh would change float accumulation order and break the bit-identity
// contract with the uncompacted peel.
func (a *Arena) ViewAllWith(slot int, sub *SubCSR, wAlive, dAlive float64) *CSRView {
	n := sub.NumNodes()
	v := &a.views[slot]
	v.c = &sub.flatCSR
	v.alive = growBool(v.alive, n)
	v.deg = growInt32(v.deg, n)
	for i := 0; i < n; i++ {
		v.alive[i] = true
		v.deg[i] = sub.offsets[i+1] - sub.offsets[i]
	}
	v.nAlive = n
	v.mAlive = len(sub.targets) / 2
	v.wAlive = wAlive
	v.dAlive = dAlive
	return v
}

// ViewOf returns the slot's view with exactly the nodes of set (sorted
// ascending, duplicate-free, local ids of sub) alive — the arena-backed
// NewCSRViewOf, with identical accumulation order for the aggregates.
func (a *Arena) ViewOf(slot int, sub *SubCSR, set []Node) *CSRView {
	n := sub.NumNodes()
	v := &a.views[slot]
	v.c = &sub.flatCSR
	v.alive = growBool(v.alive, n)
	v.deg = growInt32(v.deg, n)
	for i := 0; i < n; i++ {
		v.alive[i] = false
		v.deg[i] = 0
	}
	v.nAlive = len(set)
	v.mAlive = 0
	v.wAlive = 0
	v.dAlive = 0
	for _, u := range set {
		v.alive[u] = true
	}
	c := &sub.flatCSR
	for _, u := range set {
		v.dAlive += c.wdeg[u]
		adj := c.Neighbors(u)
		if c.weights != nil {
			ws := c.NeighborWeights(u)
			for i, w := range adj {
				if v.alive[w] {
					v.deg[u]++
					if u < w {
						v.mAlive++
						v.wAlive += ws[i]
					}
				}
			}
		} else {
			for _, w := range adj {
				if v.alive[w] {
					v.deg[u]++
					if u < w {
						v.mAlive++
					}
				}
			}
		}
	}
	if c.weights == nil {
		v.wAlive = float64(v.mAlive)
	}
	return v
}

// Dist returns the slot's distance buffer sized for n nodes (contents
// arbitrary; BFS fills it).
func (a *Arena) Dist(slot, n int) []int32 {
	a.dist[slot] = growInt32(a.dist[slot], n)
	return a.dist[slot]
}

// Queue returns an empty node queue with capacity for n entries.
func (a *Arena) Queue(n int) []Node {
	if cap(a.queue) < n {
		a.queue = make([]Node, 0, n)
	}
	return a.queue[:0]
}

// Nodes returns the slot's generic node buffer sized n (contents
// arbitrary).
func (a *Arena) Nodes(slot, n int) []Node {
	a.nodes[slot] = growNodes(a.nodes[slot], n)
	return a.nodes[slot]
}

// Marks returns the slot's per-node flag buffer sized n, cleared.
func (a *Arena) Marks(slot, n int) []bool {
	a.marks[slot] = growBool(a.marks[slot], n)
	m := a.marks[slot]
	for i := range m {
		m[i] = false
	}
	return m
}

// Art returns the articulation-DFS scratch.
func (a *Arena) Art() *ArtScratch { return &a.art }

// Poison overwrites every arena-owned buffer with garbage while keeping
// the epoch bookkeeping in a legal (worst-case) state: all table entries
// tagged with the CURRENT epoch so any consumer that forgets to begin a
// new epoch, or to rewrite a buffer before reading it, sees the garbage.
// It exists for tests proving that no query result can depend on arena
// state left behind by earlier queries. Shared snapshot memory referenced
// by WrapFull slots is deliberately not touched — the arena does not own
// it.
func (a *Arena) Poison() {
	const junk = -0x5A5A
	for i := range a.table {
		a.table[i] = junk
		a.tag[i] = a.epoch
	}
	for s := range a.subStore {
		st := &a.subStore[s]
		poisonInt32(st.offsets[:cap(st.offsets)])
		poisonNodes(st.targets[:cap(st.targets)])
		poisonFloat64(st.weights[:cap(st.weights)])
		poisonFloat64(st.wdeg[:cap(st.wdeg)])
		poisonNodes(st.global[:cap(st.global)])
		// Wrapped slots alias shared snapshot memory; detach the headers
		// so the poisoned stores are what the next query would reuse.
		a.subs[s] = SubCSR{}
	}
	a.resub = CSR{pages: a.resub.pages[:0]} // its pages pointed into a store
	for i := range a.views {
		v := &a.views[i]
		poisonBool(v.alive[:cap(v.alive)])
		poisonInt32(v.deg[:cap(v.deg)])
		v.c = nil
		v.nAlive, v.mAlive = junk, junk
		v.wAlive, v.dAlive = junk, junk
	}
	poisonInt32(a.dist[0][:cap(a.dist[0])])
	poisonInt32(a.dist[1][:cap(a.dist[1])])
	poisonNodes(a.queue[:cap(a.queue)])
	for i := range a.nodes {
		poisonNodes(a.nodes[i][:cap(a.nodes[i])])
	}
	for i := range a.marks {
		poisonBool(a.marks[i][:cap(a.marks[i])])
	}
	s := &a.art
	poisonBool(s.isArt[:cap(s.isArt)])
	poisonInt32(s.disc[:cap(s.disc)])
	poisonInt32(s.low[:cap(s.low)])
	poisonNodes(s.parent[:cap(s.parent)])
	poisonInt32(s.iter[:cap(s.iter)])
	poisonNodes(s.stack[:cap(s.stack)])
}

func poisonInt32(s []int32) {
	for i := range s {
		s[i] = -0x5A5A
	}
}

func poisonNodes(s []Node) {
	for i := range s {
		s[i] = -0x5A5A
	}
}

func poisonFloat64(s []float64) {
	for i := range s {
		s[i] = -23130.23130
	}
}

func poisonBool(s []bool) {
	for i := range s {
		s[i] = true
	}
}
