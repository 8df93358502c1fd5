package serve

// reach.go holds each served graph's index and answers two query shapes from
// it in O(1). Both answers are properties of the graph, not of the question,
// and a served graph cannot change within an Epoch(), so NewServer builds and
// checks one index per graph and no such query runs a kernel:
//
//   - a BFS or SSSP that names no target asks how many vertices the source
//     reaches. That number is the same for every source in one strongly
//     connected component (SCC). SSSP's reached set is BFS's: every weight is
//     positive and an unreachable vertex stays at Inf;
//   - a CC query asks for the vertex's weak component: its label, the
//     smallest vertex id in it (verify.Components' canonical labelling), and
//     its size. The GAP spec's CC treats a directed input as undirected, so
//     the answer is the same for every framework.
//
// The index is the SCC condensation. An iterative Tarjan over out-arcs numbers
// the components sinks first, so every arc stays inside its component or
// points to a lower id. A component with no leaving arc reaches exactly
// itself; every other component (a row) gets a bitset over the components,
// filled in id order by OR-ing in the row of each component it points to, and
// its count is the sum of the sizes whose bits are set. Every SCC lies inside
// one weak component: a union-find over the component ids, joined along every
// arc that leaves its component, gives each SCC its weak component's label and
// size. On a symmetric graph every component is a connected component with no
// leaving arc, so the index needs no bitset and no join.
//
// The bitsets are bounded by the input, not by a knob: rows × ⌈c/64⌉ words
// may not exceed the arc count m, i.e. 8 bytes per arc. A graph above the
// bound has no reach counts, and its reach queries run the kernel per query;
// its CC queries are still answered from the index. Only comp (4n bytes), the
// per-component reach counts (8c bytes) and the per-component weak labels and
// sizes (12c bytes) outlive the build.
//
// The index is checked before it is served (a wrong index is a daemon bug,
// not a framework fault, so NewServer fails): verify.CheckSCC proves the
// partition is exactly the SCCs in sink-first order, independently of Tarjan;
// the counts of the largest component's first vertex and of reachSamples
// seeded sources must equal a serial BFS; and every vertex's weak label and
// size must equal verify.Components and a recount of its labels. Armed,
// reachAnswerCheck and componentAnswerCheck sample served answers too.

import (
	"fmt"
	"math/bits"
	"time"

	"gapbench/internal/core"
	"gapbench/internal/graph"
	"gapbench/internal/verify"
)

// reachSamples is how many seeded sources the build check recomputes with a
// serial BFS, on top of the largest component's first vertex.
const reachSamples = 8

// reachIndex answers reach and CC queries on one graph.
type reachIndex struct {
	// epoch is g.Epoch() of the graph the index was built on.
	epoch uint64
	// comp is each vertex's SCC id, sinks first.
	comp []int32
	// reached is the number of vertices each component reaches, itself
	// included; nil on a graph over the bitset bound.
	reached []int64
	// label and size are each component's weak component: its smallest
	// vertex id and its vertex count.
	label []graph.NodeID
	size  []int64
}

// reachStats describes one index build for gapd's start log.
type reachStats struct {
	// comps and weak count the strongly and the weakly connected
	// components, rows the components an arc leaves.
	comps, weak, rows int
	// bitsetBytes is what the rows' bitsets take (or would take, over the
	// bound); bound is 8 bytes per arc.
	bitsetBytes, bound int64
}

// reach is the number of vertices src reaches, src included. It needs the
// reach counts: the caller checks reached is non-nil.
func (ix *reachIndex) reach(src graph.NodeID) int64 {
	return ix.reached[ix.comp[src]]
}

// component is v's weak component: its canonical label and vertex count.
func (ix *reachIndex) component(v graph.NodeID) (graph.NodeID, int64) {
	x := ix.comp[v]
	return ix.label[x], ix.size[x]
}

// indexReach builds and checks the index of one served graph, and returns
// with it the log line that says what it cost.
func indexReach(name string, g *graph.Graph) (*reachIndex, string, error) {
	t0 := time.Now()
	ix, st := newReachIndex(g)
	t1 := time.Now()
	if err := checkReachIndex(g, ix); err != nil {
		return nil, "", fmt.Errorf("serve: reach index of %s: %w", name, err)
	}
	t2 := time.Now()
	rows := fmt.Sprintf("%d rows, %d bitset bytes", st.rows, st.bitsetBytes)
	if ix.reached == nil {
		rows = fmt.Sprintf("reach not indexed: %d bitset bytes over the 8-bytes-per-arc bound of %d",
			st.bitsetBytes, st.bound)
	}
	line := fmt.Sprintf("reach index %s: %d components, %d weak components, %s; built in %.2f ms, checked in %.2f ms",
		name, st.comps, st.weak, rows, t1.Sub(t0).Seconds()*1e3, t2.Sub(t1).Seconds()*1e3)
	return ix, line, nil
}

// newReachIndex builds g's index. Its reach counts are nil when the rows'
// bitsets would exceed 8 bytes per arc.
func newReachIndex(g *graph.Graph) (*reachIndex, reachStats) {
	comp, c := sccTarjan(g)
	index, neigh := g.RawOut()
	size := make([]int64, c)
	for _, x := range comp {
		size[x]++
	}
	// row[x] is component x's bitset row, -1 when no arc leaves x, and root
	// the union-find that joins components along the arcs leaving them. No
	// arc leaves a component of an undirected graph: its arcs come in pairs.
	row := make([]int32, c)
	root := make([]int32, c)
	for x := range row {
		row[x], root[x] = -1, int32(x)
	}
	rows := int32(0)
	if g.Directed() {
		for u, x := range comp {
			for _, v := range neigh[index[u]:index[u+1]] {
				if y := comp[v]; y != x {
					if row[x] < 0 {
						row[x] = rows
						rows++
					}
					if rx, ry := find(root, x), find(root, y); rx != ry {
						root[rx] = ry
					}
				}
			}
		}
	}
	ix := &reachIndex{epoch: g.Epoch(), comp: comp}
	words := (c + 63) / 64
	st := reachStats{comps: c, rows: int(rows),
		bitsetBytes: 8 * int64(rows) * int64(words), bound: 8 * int64(len(neigh))}
	ix.label, ix.size, st.weak = weakComponents(comp, root)
	if st.bitsetBytes > st.bound {
		return ix, st
	}
	if rows == 0 { // every component reaches exactly itself
		ix.reached = size
		return ix, st
	}

	// members lists the vertices of each component, component by component.
	start := make([]int32, c+1)
	for _, x := range comp {
		start[x+1]++
	}
	for x := 0; x < c; x++ {
		start[x+1] += start[x]
	}
	members := make([]graph.NodeID, len(comp))
	next := append([]int32(nil), start[:c]...)
	for v, x := range comp {
		members[next[x]] = graph.NodeID(v)
		next[x]++
	}

	reached := make([]int64, c)
	set := make([]uint64, int(rows)*words)
	for x := 0; x < c; x++ {
		r := int(row[x])
		if r < 0 {
			reached[x] = size[x]
			continue
		}
		// Every component x points to has a lower id, so its row is complete
		// and holds no bit above its own id. A bit already set means that
		// component's whole reach is in x's row already.
		rx := set[r*words : (r+1)*words]
		rx[x/64] |= 1 << (x % 64)
		for _, u := range members[start[x]:start[x+1]] {
			for _, v := range neigh[index[u]:index[u+1]] {
				y := int(comp[v])
				if rx[y/64]&(1<<(y%64)) != 0 {
					continue
				}
				if ry := int(row[y]); ry >= 0 {
					for i, w := range set[ry*words : ry*words+y/64+1] {
						rx[i] |= w
					}
				} else {
					rx[y/64] |= 1 << (y % 64)
				}
			}
		}
		sum := int64(0)
		for i, w := range rx[:x/64+1] {
			for ; w != 0; w &= w - 1 {
				sum += size[i*64+bits.TrailingZeros64(w)]
			}
		}
		reached[x] = sum
	}
	ix.reached = reached
	return ix, st
}

// find is x's union-find root, halving the path to it.
func find(root []int32, x int32) int32 {
	for root[x] != x {
		root[x] = root[root[x]]
		x = root[x]
	}
	return x
}

// weakComponents gives each component the label (smallest vertex id) and
// vertex count of its weak component, the union-find set it is in, and counts
// the weak components. A root's entries accumulate in vertex order, so its
// label is its set's first vertex; then every component copies its root's (a
// root copies itself, so the order of the copies does not matter).
func weakComponents(comp, root []int32) ([]graph.NodeID, []int64, int) {
	label := make([]graph.NodeID, len(root))
	size := make([]int64, len(root))
	weak := 0
	for v, x := range comp {
		r := find(root, x)
		if size[r] == 0 {
			label[r] = graph.NodeID(v)
			weak++
		}
		size[r]++
	}
	for x := range root {
		r := find(root, int32(x))
		label[x], size[x] = label[r], size[r]
	}
	return label, size, weak
}

// sccTarjan numbers g's strongly connected components sinks first — the
// order Tarjan's algorithm completes them in — and returns each vertex's id
// and the component count. It is iterative (an explicit frame stack, no
// recursion) and O(n+m).
func sccTarjan(g *graph.Graph) ([]int32, int) {
	n := int(g.NumNodes())
	index, neigh := g.RawOut()
	comp := make([]int32, n)
	order := make([]int32, n) // preorder number + 1; 0 = not yet visited
	low := make([]int32, n)
	for v := range comp {
		comp[v] = -1
	}
	type frame struct {
		v    int32
		next int64 // v's next out-arc to follow
	}
	var (
		calls   []frame
		pending []int32 // visited vertices whose component is not yet complete
		visits  int32
		c       int32
	)
	for s := int32(0); s < int32(n); s++ {
		if order[s] != 0 {
			continue
		}
		visits++
		order[s], low[s] = visits, visits
		pending = append(pending, s)
		calls = append(calls, frame{s, index[s]})
		for len(calls) > 0 {
			top := len(calls) - 1
			v := calls[top].v
			lv := low[v]
			descended := false
			for i, end := calls[top].next, index[v+1]; i < end; i++ {
				w := neigh[i]
				if order[w] == 0 {
					calls[top].next = i + 1
					visits++
					order[w], low[w] = visits, visits
					pending = append(pending, w)
					calls = append(calls, frame{w, index[w]})
					descended = true
					break
				}
				if comp[w] < 0 { // w is pending: on the current path's cycle
					lv = min(lv, order[w])
				}
			}
			low[v] = lv
			if descended {
				continue
			}
			calls = calls[:top]
			if top > 0 {
				u := calls[top-1].v
				low[u] = min(low[u], lv)
			}
			if lv != order[v] {
				continue
			}
			for {
				w := pending[len(pending)-1]
				pending = pending[:len(pending)-1]
				comp[w] = c
				if w == v {
					break
				}
			}
			c++
		}
	}
	return comp, int(c)
}

// checkReachIndex proves the index's partition with verify.CheckSCC, proves
// its weak labels and sizes against verify.Components and a recount, and,
// when the index has reach counts, recomputes those of the largest
// component's first vertex and of reachSamples seeded sources with a serial
// BFS. Once the partition is proven every member of a component reaches the
// same set, so a sampled source whose component was already checked is
// skipped: one BFS per sampled component.
func checkReachIndex(g *graph.Graph, ix *reachIndex) error {
	if err := verify.CheckSCC(g, ix.comp); err != nil {
		return err
	}
	n := len(ix.comp)
	want := verify.Components(g)
	count := make([]int64, n) // vertices per canonical label
	for _, l := range want {
		count[l]++
	}
	for v := range ix.comp {
		label, size := ix.component(graph.NodeID(v))
		if label != want[v] {
			return fmt.Errorf("vertex %d has weak-component label %d by the index, %d by verify.Components", v, label, want[v])
		}
		if size != count[label] {
			return fmt.Errorf("vertex %d's weak component has %d vertices by the index, %d by a recount", v, size, count[label])
		}
	}
	if n == 0 || ix.reached == nil {
		return nil
	}
	size := make([]int64, len(ix.reached))
	for _, x := range ix.comp {
		size[x]++
	}
	first := graph.NodeID(0) // the largest component's first vertex
	for v, x := range ix.comp {
		if size[x] > size[ix.comp[first]] {
			first = graph.NodeID(v)
		}
	}
	sources := []graph.NodeID{first}
	for i := uint64(1); i <= reachSamples; i++ {
		sources = append(sources, graph.NodeID(splitmix64(ix.epoch+i)%uint64(n)))
	}
	checked := make(map[int32]bool, len(sources))
	for _, src := range sources {
		if checked[ix.comp[src]] {
			continue
		}
		checked[ix.comp[src]] = true
		if got, want := ix.reach(src), bfsReached(g, src); got != want {
			return fmt.Errorf("vertex %d reaches %d vertices by the index, %d by a BFS", src, got, want)
		}
	}
	return nil
}

// serveReach answers a target-less BFS or SSSP, or a CC query, off the
// graph's index. It is served like a snapshot hit: it passed drain, the
// (framework, kernel) breaker and admission in query; it takes no lease and
// no goroutine, carries no kernel_micros, resolves a half-open probe as a
// success (an ordinary answer leaves the abandonment count alone: no kernel
// ran), and journals as verified with no trial.
func (s *Server) serveReach(p *queryPlan, probe bool) Response {
	epochCheck("reach index", p.reach.epoch, p.in.Graph.Epoch())
	res := &QueryResult{}
	if p.k == core.CC {
		label, size := p.reach.component(p.vertex)
		componentAnswerCheck(p.id, p.in.Graph, p.vertex, label, size)
		res.Component, res.Size = int64(label), size
	} else {
		res.Reached = p.reach.reach(p.src)
		reachAnswerCheck(p.id, p.in.Graph, p.src, res.Reached)
	}
	s.c.reachHits.Add(1)
	if probe {
		s.breakers.OnSuccess(p.fwName, string(p.k), true)
	}
	s.c.ok.Add(1)
	s.journalQuery(p, nil, core.OK, 0, "")
	return Response{Code: CodeOK, Result: res}
}
