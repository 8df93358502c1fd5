package generate

import (
	"fmt"
	"math"

	"gapbench/internal/graph"
)

// Names of the five benchmark graphs, matching the paper's Table I.
const (
	NameRoad    = "Road"
	NameTwitter = "Twitter"
	NameWeb     = "Web"
	NameKron    = "Kron"
	NameUrand   = "Urand"
)

// Names lists the benchmark graphs in Table I order.
var Names = []string{NameRoad, NameTwitter, NameWeb, NameKron, NameUrand}

// ByName generates the named benchmark graph at the given scale
// (log2 of the approximate vertex count) with the given seed. All generated
// graphs are weighted (weights uniform in [1,255], used only by SSSP).
func ByName(name string, scale int, seed uint64) (*graph.Graph, error) {
	switch name {
	case NameRoad:
		return Road(scale, seed)
	case NameTwitter:
		return Twitter(scale, seed)
	case NameWeb:
		return Web(scale, seed)
	case NameKron:
		return Kron(scale, seed)
	case NameUrand:
		return Urand(scale, seed)
	default:
		return nil, fmt.Errorf("generate: unknown graph %q (want one of %v)", name, Names)
	}
}

// Road builds a directed road-network stand-in: a jittered 2-D lattice with a
// serpentine spanning path (guaranteeing connectivity) plus a random subset
// of the remaining lattice edges. Every segment is two-way. The result has
// bounded degree (≈2.4 average, ≤4+ε max) and a diameter proportional to the
// lattice side — the "small graph, huge diameter" regime that Table I's Road
// occupies and that §VI calls out as the hardest case for bulk-synchronous
// frameworks.
func Road(scale int, seed uint64) (*graph.Graph, error) {
	if scale < 2 || scale > 30 {
		return nil, fmt.Errorf("generate: road scale %d out of range [2,30]", scale)
	}
	side := int64(math.Round(math.Sqrt(float64(int64(1) << scale))))
	if side < 2 {
		side = 2
	}
	n := side * side
	r := newRNG(seed ^ 0x0a0d)
	id := func(x, y int64) graph.NodeID { return graph.NodeID(y*side + x) }

	var edges []graph.WEdge
	addSegment := func(a, b graph.NodeID) {
		w := r.weight()
		// Two-way street: one weight per segment, both directions.
		edges = append(edges, graph.WEdge{U: a, V: b, W: w}, graph.WEdge{U: b, V: a, W: w})
	}

	// Serpentine spanning path: left-to-right on even rows, right-to-left on
	// odd rows, with a connector at each row end.
	for y := int64(0); y < side; y++ {
		for x := int64(0); x+1 < side; x++ {
			addSegment(id(x, y), id(x+1, y))
		}
		if y+1 < side {
			if y%2 == 0 {
				addSegment(id(side-1, y), id(side-1, y+1))
			} else {
				addSegment(id(0, y), id(0, y+1))
			}
		}
	}
	// Sprinkle extra vertical segments so the average out-degree lands near
	// Table I's 2.4 instead of the serpentine's 2.0.
	extra := cut(0.2)
	for y := int64(0); y+1 < side; y++ {
		for x := int64(0); x < side; x++ {
			if y%2 == 0 && x == side-1 || y%2 == 1 && x == 0 {
				continue // already part of the serpentine
			}
			if r.chance(extra) {
				addSegment(id(x, y), id(x, y+1))
			}
		}
	}
	return graph.BuildWeighted(edges, graph.BuildOptions{NumNodes: int32(n), Directed: true})
}

// Twitter builds a directed social-network stand-in: an RMAT draw (kept
// directed, unlike Kron) with edge factor 24, giving power-law in- and
// out-degrees — celebrities with enormous followings, most accounts with few
// — and a tiny diameter, the regime Table I reports for the Twitter follow
// graph (avg degree 23.8, power law, diameter 14).
func Twitter(scale int, seed uint64) (*graph.Graph, error) {
	if scale < 2 || scale > 30 {
		return nil, fmt.Errorf("generate: twitter scale %d out of range [2,30]", scale)
	}
	n := int64(1) << scale
	const edgeFactor = 24
	q := newQuadrants(0.52, 0.19, 0.19)
	r := newRNG(seed ^ 0x77171)
	m := n * edgeFactor
	edges := make([]graph.WEdge, 0, m)
	for i := int64(0); i < m; i++ {
		u, v := rmatPair(r, scale, q)
		if u == v {
			continue
		}
		edges = append(edges, graph.WEdge{U: graph.NodeID(u), V: graph.NodeID(v), W: r.weight()})
	}
	return graph.BuildWeighted(edges, graph.BuildOptions{NumNodes: int32(n), Directed: true})
}

// rmatPair draws one RMAT edge endpoint pair by recursive quadrant descent:
// one draw per bit, its quadrant picked by integer cuts without a branch.
func rmatPair(r *rng, scale int, q quadrants) (int64, int64) {
	var u, v uint64
	for bit := 0; bit < scale; bit++ {
		row, col := q.bits(r.draw53())
		u |= row << bit
		v |= col << bit
	}
	return int64(u), int64(v)
}

// Web builds a directed web-crawl stand-in: vertices are grouped into hosts
// with power-law sizes; most links stay inside a host (locality and high
// clustering), most cross-host links go to nearby hosts in crawl order, and a
// few go to globally popular hosts. This yields power-law degrees with a
// diameter well above other power-law graphs (Table I: 135 for Web vs 14 for
// Twitter) and the strong cache locality §V-D observes for Web.
func Web(scale int, seed uint64) (*graph.Graph, error) {
	if scale < 4 || scale > 30 {
		return nil, fmt.Errorf("generate: web scale %d out of range [4,30]", scale)
	}
	n := int64(1) << scale
	const avgOut = 38
	r := newRNG(seed ^ 0x3eb2)
	intra, front, entry := cut(0.80), cut(0.3), cut(0.5)

	// Carve [0,n) into hosts with power-law sizes in [8, 8+n/16); the last
	// host takes whatever remains.
	type host struct{ start, size int64 }
	var hosts []host
	for at := int64(0); at < n; {
		f := r.float64v()
		size := int64(8 + f*f*f*float64(n/16))
		if at+size > n {
			size = n - at
		}
		hosts = append(hosts, host{start: at, size: size})
		at += size
	}
	hostOf := make([]int32, n)
	for hi, h := range hosts {
		for i := h.start; i < h.start+h.size; i++ {
			hostOf[i] = int32(hi)
		}
	}

	edges := make([]graph.WEdge, 0, n*avgOut)
	nh := int64(len(hosts))
	for u := int64(0); u < n; u++ {
		// Page out-degrees are skewed: index/hub pages link heavily.
		df := r.float64v()
		deg := 1 + int64(3*avgOut*df*df)
		h := hosts[hostOf[u]]
		for k := int64(0); k < deg; k++ {
			var v int64
			if r.chance(intra) && h.size > 1 {
				// Intra-host link. Targets are Zipf-skewed toward the front
				// of the host (index pages), with an extra bias to the front
				// page itself — the source of the power-law in-degrees.
				if r.chance(front) {
					v = h.start
				} else {
					f := r.float64v()
					v = h.start + int64(f*f*f*float64(h.size))
				}
			} else {
				// Link to an adjacent host in crawl order. Cross-host paths
				// walk the host chain — no global shortcuts — which is what
				// keeps the diameter an order of magnitude above the other
				// power-law graphs (Table I: 135 for Web vs 14 for Twitter).
				delta := r.intn(4) - 1 // -1, 0, +1, +2
				th := int64(hostOf[u]) + delta
				if th < 0 {
					th = 0
				}
				if th >= nh {
					th = nh - 1
				}
				t := hosts[th]
				if r.chance(entry) {
					v = t.start
				} else {
					f := r.float64v()
					v = t.start + int64(f*f*f*float64(t.size))
				}
			}
			if v == u {
				continue
			}
			edges = append(edges, graph.WEdge{U: graph.NodeID(u), V: graph.NodeID(v), W: r.weight()})
		}
	}
	return graph.BuildWeighted(edges, graph.BuildOptions{NumNodes: int32(n), Directed: true})
}

// Kron builds the Graph500 Kronecker graph: 2^scale vertices, edge factor 16,
// RMAT parameters A=0.57, B=0.19, C=0.19, undirected — exactly the recipe the
// GAP specification prescribes for its synthetic Kron input.
func Kron(scale int, seed uint64) (*graph.Graph, error) {
	if scale < 1 || scale > 30 {
		return nil, fmt.Errorf("generate: kron scale %d out of range [1,30]", scale)
	}
	n := int64(1) << scale
	const edgeFactor = 16
	q := newQuadrants(0.57, 0.19, 0.19)
	r := newRNG(seed ^ 0x6163)
	m := n * edgeFactor
	edges := make([]graph.WEdge, 0, m)
	for i := int64(0); i < m; i++ {
		u, v := rmatPair(r, scale, q)
		if u == v {
			continue
		}
		edges = append(edges, graph.WEdge{U: graph.NodeID(u), V: graph.NodeID(v), W: r.weight()})
	}
	return graph.BuildWeighted(edges, graph.BuildOptions{NumNodes: int32(n), Directed: false})
}

// Urand builds the Erdős–Rényi uniform random graph: 2^scale vertices, edge
// factor 16, undirected — the GAP specification's Urand input. Its degree
// distribution is binomial ("normal" in Table I) and its diameter is tiny,
// which §VI notes defeats diameter heuristics keyed to degree skew.
func Urand(scale int, seed uint64) (*graph.Graph, error) {
	if scale < 1 || scale > 30 {
		return nil, fmt.Errorf("generate: urand scale %d out of range [1,30]", scale)
	}
	n := int64(1) << scale
	const edgeFactor = 16
	r := newRNG(seed ^ 0x4a4d4)
	m := n * edgeFactor
	edges := make([]graph.WEdge, 0, m)
	for i := int64(0); i < m; i++ {
		u := r.intn(n)
		v := r.intn(n)
		if u == v {
			continue
		}
		edges = append(edges, graph.WEdge{U: graph.NodeID(u), V: graph.NodeID(v), W: r.weight()})
	}
	return graph.BuildWeighted(edges, graph.BuildOptions{NumNodes: int32(n), Directed: false})
}
