package graph

// Arena is a pooled bundle of the scratch memory one community-search
// query needs: the epoch-tagged source-id -> local-id relabelling table,
// a SubCSR backing store, CSRView backing arrays, BFS dist/queue
// buffers, and articulation-DFS scratch. An arena is checked out per
// query (internal/engine owns one per worker; internal/dmcs keeps a
// sync.Pool for the one-shot entry points) and reused forever after, so
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
// A query peels one sub-CSR, so the arena holds one. No search needs two
// views of it alive at once: neither pruned phase 1 builds a view. Views,
// distance and node buffers still come in two slots because
// dmcsbench/trace.go calls ViewAll(0, ...), Dist(0, ...) and
// Nodes(0, ...); CHANGES.md's FOUND line on the slots waits for the
// dmcsbench half of ROADMAP item 1. Entering a slot invalidates whatever
// it held before.
type Arena struct {
	relabel

	subStore subStorage
	sub      SubCSR
	views    [2]CSRView

	dist     [2][]int32
	queue    []Node
	layering Layering
	nodes    [2][]Node // generic node scratch (members list, BFS parents, ...)
	marks    [2][]bool // generic per-local-node flags (isQuery, inLayer, ...)
	art      ArtScratch
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
// ascending, duplicate-free, ids in src's space) into the arena's sub,
// reusing its backing memory. Neighbors outside the member set are
// dropped, so members need not be component-closed. The returned SubCSR's
// Globals() are the member ids in src's id space. The arena's current
// epoch is consumed to build the relabelling table.
func (a *Arena) ExtractSub(src *CSR, members []Node) *SubCSR {
	store := &a.subStore
	extractSub(&a.sub, store, src, members, &a.relabel)
	store.global = growNodes(store.global, len(members))
	copy(store.global, members)
	a.sub.global = store.global
	return &a.sub
}

// WrapFull points the arena's sub at src itself: an identity sub over the
// whole snapshot, sharing the arrays of a Contiguous src (nothing is
// copied, and Poison will never scribble on them — the owned store is
// left untouched). Used when the query's component spans the entire
// graph; for a merged src it packs a private copy on every call, so
// per-query callers check Contiguous and extract instead.
func (a *Arena) WrapFull(src *CSR) *SubCSR {
	a.sub.wrap(src)
	return &a.sub
}

// ViewAll returns the slot's view with every node of sub alive, seeded
// with sub's canonical aggregates.
func (a *Arena) ViewAll(slot int, sub *SubCSR) *CSRView {
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
	v.wAlive = sub.compW
	v.dAlive = sub.compD
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
	for _, u := range set {
		v.alive[u] = true
	}
	v.accumulate(set)
	return v
}

// ViewOfBall returns the slot's view of the ball l reached by level j,
// which l must have expanded: alive are exactly the nodes within
// distance j, and wC and dS are the ball's internal edge count and summed
// node weights, exact on an unweighted sub, which its caller has counted
// already. No edge leaves the ball's interior, so only the nodes on level
// j read their rows, for their alive degrees.
func (a *Arena) ViewOfBall(slot int, l *Layering, j int32, wC, dS float64) *CSRView {
	c, dist := l.c, l.dist
	n := c.NumNodes()
	v := &a.views[slot]
	v.c = c
	v.alive = growBool(v.alive, n)
	v.deg = growInt32(v.deg, n)
	clear(v.alive)
	clear(v.deg)
	offsets, targets := c.offsets, c.targets
	ball := l.queue[:l.starts[j+1]]
	for _, u := range ball {
		v.alive[u] = true
		if dist[u] < j {
			v.deg[u] = offsets[u+1] - offsets[u]
			continue
		}
		k := int32(0)
		for _, w := range targets[offsets[u]:offsets[u+1]] {
			k += b2i(dist[w] <= j)
		}
		v.deg[u] = k
	}
	v.nAlive, v.wAlive, v.dAlive = len(ball), wC, dS
	return v
}

// Dist returns the slot's distance buffer sized for n nodes (contents
// arbitrary; BFS fills it).
func (a *Arena) Dist(slot, n int) []int32 {
	a.dist[slot] = growInt32(a.dist[slot], n)
	return a.dist[slot]
}

// Queue returns an empty node queue with capacity for n entries and one
// spare slot (see topDownCounting).
func (a *Arena) Queue(n int) []Node {
	if cap(a.queue) < n+1 {
		a.queue = make([]Node, 0, n+1)
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
// by a WrapFull sub is deliberately not touched — the arena does not own
// it.
func (a *Arena) Poison() {
	const junk = -0x5A5A
	for i := range a.table {
		a.table[i] = junk
		a.tag[i] = a.epoch
	}
	st := &a.subStore
	poisonInt32(st.offsets[:cap(st.offsets)])
	poisonNodes(st.targets[:cap(st.targets)])
	poisonFloat64(st.weights[:cap(st.weights)])
	poisonFloat64(st.wdeg[:cap(st.wdeg)])
	poisonNodes(st.global[:cap(st.global)])
	// A wrapped sub aliases shared snapshot memory; detach the header so
	// the poisoned store is what the next query would reuse.
	a.sub = SubCSR{}
	for i := range a.views {
		v := &a.views[i]
		poisonBool(v.alive[:cap(v.alive)])
		poisonInt32(v.deg[:cap(v.deg)])
		v.c = nil
		v.nAlive = junk
		v.wAlive, v.dAlive = junk, junk
	}
	poisonInt32(a.dist[0][:cap(a.dist[0])])
	poisonInt32(a.dist[1][:cap(a.dist[1])])
	poisonNodes(a.queue[:cap(a.queue)])
	starts := a.layering.starts
	poisonInt32(starts[:cap(starts)])
	a.layering = Layering{starts: starts}
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
