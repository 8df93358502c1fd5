package nwgraph

import (
	"math"
	"sync/atomic"

	ft "gapbench/internal/frontier"
	"gapbench/internal/graph"
	"gapbench/internal/kernel"
	"gapbench/internal/par"
)

// BFS is a straightforward direction-optimizing search with a simple,
// untuned switch criterion (§V-A: "a straightforward, initial implementation
// ... no fine tuning of the switching criteria"). Frontiers are freshly
// allocated vectors each round — the STL-vector reliance whose overhead the
// paper observes "was particularly noticeable for Road". The bottom-up
// membership test opts in to the shared frontier library: the sparse round
// frontier converts to a frontier.Set bitmap (a timed conversion, like the
// std::vector<bool> build it replaces) and Contains answers the probes.
func BFS[G BidirectionalAdjacency](exec *par.Machine, g G, src Vertex, workers int) []Vertex {
	n := g.NumVertices()
	parent := make([]Vertex, n)
	for i := range parent {
		parent[i] = -1
	}
	if n == 0 {
		return parent
	}
	parent[src] = src
	frontier := []Vertex{src}

	for len(frontier) > 0 {
		if exec.Interrupted() {
			return parent // partial; the harness discards cancelled trials
		}
		if len(frontier) > n/20 {
			// Bottom-up: scan all unvisited vertices.
			inFrontier := ft.FromList(int64(n), frontier).ToBitmap(exec, workers)
			var collect nextCollect
			exec.ForBlocked(n, workers, func(lo, hi int) {
				var local []Vertex
				for vi := lo; vi < hi; vi++ {
					v := Vertex(vi)
					//gapvet:ignore atomic-plain-mix -- bottom-up phase: each v writes only parent[v]; barrier-separated from the push phase's CAS
					if parent[v] >= 0 {
						continue
					}
					//gapvet:ignore escape-in-kernel -- internal-iterator callback: the per-vertex lambda is the abstraction cost the paper observes for NWGraph; hoisting it would misstate the framework
					g.InNeighbors(v, func(u Vertex) bool {
						if inFrontier.Contains(u) {
							parent[v] = u
							local = append(local, v)
							return false
						}
						return true
					})
				}
				collect.add(local)
			})
			frontier = collect.take()
		} else {
			cur := frontier
			var collect nextCollect
			exec.ForDynamic(len(cur), 64, workers, func(lo, hi int) {
				var local []Vertex
				for i := lo; i < hi; i++ {
					u := cur[i]
					//gapvet:ignore escape-in-kernel -- internal-iterator callback: the per-vertex lambda is the abstraction cost the paper observes for NWGraph; hoisting it would misstate the framework
					g.Neighbors(u, func(v Vertex) bool {
						if atomic.LoadInt32(&parent[v]) < 0 &&
							atomic.CompareAndSwapInt32(&parent[v], -1, u) {
							local = append(local, v)
						}
						return true
					})
				}
				collect.add(local)
			})
			frontier = collect.take()
		}
	}
	return parent
}

// SSSP is generic delta-stepping (no bucket fusion) with per-worker bins,
// managed the way NWGraph manages parallelism through TBB primitives.
func SSSP[G WeightedAdjacency](exec *par.Machine, g G, src Vertex, delta kernel.Dist, workers int) []kernel.Dist {
	n := g.NumVertices()
	dist := make([]kernel.Dist, n)
	for i := range dist {
		dist[i] = kernel.Inf
	}
	if n == 0 {
		return dist
	}
	if workers < 1 {
		workers = 1
	}
	dist[src] = 0
	bins := make([][][]Vertex, workers)
	put := func(w, b int, v Vertex) {
		for b >= len(bins[w]) {
			bins[w] = append(bins[w], nil)
		}
		bins[w][b] = append(bins[w][b], v)
	}

	frontier := []Vertex{src}
	bucket := 0
	for {
		if exec.Interrupted() {
			return dist
		}
		lo := kernel.Dist(bucket) * delta
		hi := lo + delta
		exec.ForWorker(len(frontier), workers, func(w, i0, i1 int) {
			for i := i0; i < i1; i++ {
				u := frontier[i]
				du := atomic.LoadInt32(&dist[u])
				if du < lo || du >= hi {
					continue
				}
				//gapvet:ignore escape-in-kernel -- internal-iterator callback: the per-vertex lambda is the abstraction cost the paper observes for NWGraph; hoisting it would misstate the framework
				g.WeightedNeighbors(u, func(v Vertex, wt int32) bool {
					nd := du + wt
					old := atomic.LoadInt32(&dist[v])
					for nd < old {
						if atomic.CompareAndSwapInt32(&dist[v], old, nd) {
							put(w, int(nd/delta), v)
							break
						}
						old = atomic.LoadInt32(&dist[v])
					}
					return true
				})
			}
		})
		next := -1
		for w := range bins {
			for b := bucket; b < len(bins[w]); b++ {
				if len(bins[w][b]) > 0 && (next < 0 || b < next) {
					next = b
					break
				}
			}
		}
		if next < 0 {
			break
		}
		frontier = frontier[:0]
		for w := range bins {
			if next < len(bins[w]) {
				frontier = append(frontier, bins[w][next]...)
				bins[w][next] = nil
			}
		}
		bucket = next
	}
	return dist
}

// PR is NWGraph's Gauss-Seidel PageRank (§V-D: "NWGraph used the
// Gauss-Seidel algorithm and saw performance in line with ... the other
// frameworks using that algorithm"): in-place chaotic relaxation, expressed
// with a parallel execution policy over the vertex range.
func PR[G BidirectionalAdjacency](exec *par.Machine, g G, workers int) []float64 {
	n := g.NumVertices()
	if n == 0 {
		return nil
	}
	base := (1 - kernel.PRDamping) / float64(n)
	ranks := make([]float64, n)
	contrib := make([]uint64, n) // float64 bits of rank/out-degree
	invDeg := make([]float64, n)
	for v := 0; v < n; v++ {
		ranks[v] = 1 / float64(n)
		if d := g.Degree(Vertex(v)); d > 0 {
			invDeg[v] = 1 / float64(d)
			contrib[v] = math.Float64bits(ranks[v] * invDeg[v])
		}
	}

	for it := 0; it < kernel.PRMaxIters; it++ {
		if exec.Interrupted() {
			return ranks
		}
		dangling := exec.ReduceFloat64(n, workers, func(lo, hi int) float64 {
			var d float64
			for u := lo; u < hi; u++ {
				if invDeg[u] == 0 {
					d += ranks[u]
				}
			}
			return d
		})
		danglingShare := kernel.PRDamping * dangling / float64(n)
		// Specialize on contiguous in-neighbor ranges when the graph type
		// offers them, like a template instantiation would; otherwise gather
		// through the generic internal iterator.
		fast, hasFast := any(g).(interface{ InNeighborSlice(Vertex) []Vertex })
		delta := exec.ReduceFloat64(n, workers, func(lo, hi int) float64 {
			var d float64
			for vi := lo; vi < hi; vi++ {
				v := Vertex(vi)
				sum := 0.0
				if hasFast {
					for _, u := range fast.InNeighborSlice(v) {
						sum += math.Float64frombits(atomic.LoadUint64(&contrib[u]))
					}
				} else {
					//gapvet:ignore escape-in-kernel -- internal-iterator callback: the per-vertex lambda is the abstraction cost the paper observes for NWGraph; hoisting it would misstate the framework
					g.InNeighbors(v, func(u Vertex) bool {
						sum += math.Float64frombits(atomic.LoadUint64(&contrib[u]))
						return true
					})
				}
				next := base + danglingShare + kernel.PRDamping*sum
				d += math.Abs(next - ranks[v])
				ranks[v] = next
				if invDeg[v] != 0 {
					atomic.StoreUint64(&contrib[v], math.Float64bits(next*invDeg[v]))
				}
			}
			return d
		})
		if delta < kernel.PRTolerance {
			break
		}
	}
	return ranks
}

// CC is Afforest over the concepts (Table III: NWGraph uses Afforest), with
// parallel execution policies standing in for the C++17 parallel algorithms
// NWGraph leans on.
func CC[G BidirectionalAdjacency](exec *par.Machine, g G, directed bool, workers int) []Vertex {
	n := g.NumVertices()
	comp := make([]Vertex, n)
	for i := range comp {
		comp[i] = Vertex(i)
	}
	if n == 0 {
		return comp
	}
	const rounds = 2
	for r := 0; r < rounds; r++ {
		exec.ForDynamic(n, 256, workers, func(lo, hi int) {
			for u := lo; u < hi; u++ {
				k := 0
				//gapvet:ignore escape-in-kernel -- internal-iterator callback: the per-vertex lambda is the abstraction cost the paper observes for NWGraph; hoisting it would misstate the framework
				g.Neighbors(Vertex(u), func(v Vertex) bool {
					if k == r {
						unionCAS(Vertex(u), v, comp)
						return false
					}
					k++
					return true
				})
			}
		})
	}
	compressCAS(exec, comp, workers)
	giant := frequentLabel(comp)
	exec.ForDynamic(n, 256, workers, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			if atomic.LoadInt32(&comp[u]) == giant {
				continue
			}
			k := 0
			//gapvet:ignore escape-in-kernel -- internal-iterator callback: the per-vertex lambda is the abstraction cost the paper observes for NWGraph; hoisting it would misstate the framework
			g.Neighbors(Vertex(u), func(v Vertex) bool {
				if k >= rounds {
					unionCAS(Vertex(u), v, comp)
				}
				k++
				return true
			})
			if directed {
				//gapvet:ignore escape-in-kernel -- internal-iterator callback: the per-vertex lambda is the abstraction cost the paper observes for NWGraph; hoisting it would misstate the framework
				g.InNeighbors(Vertex(u), func(v Vertex) bool {
					unionCAS(Vertex(u), v, comp)
					return true
				})
			}
		}
	})
	compressCAS(exec, comp, workers)
	return comp
}

// BC is Brandes over the concepts without a direction-optimized forward
// search (§V-E: "The BC kernel did not use direction optimized breadth-first
// search"), followed by level-ordered sigma and dependency passes.
func BC[G BidirectionalAdjacency](exec *par.Machine, g G, sources []Vertex, workers int) []float64 {
	n := g.NumVertices()
	scores := make([]float64, n)
	if n == 0 {
		return scores
	}
	depth := make([]int32, n)
	sigma := make([]float64, n)
	delta := make([]float64, n)

	for _, src := range sources {
		exec.ForBlocked(n, workers, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				//gapvet:ignore atomic-plain-mix -- reset phase: barrier-separated from the forward phase's CAS on depth
				depth[i] = -1
				sigma[i] = 0
				delta[i] = 0
			}
		})
		depth[src] = 0
		sigma[src] = 1

		levels := [][]Vertex{{src}}
		current := levels[0]
		for len(current) > 0 {
			if exec.Interrupted() {
				return scores
			}
			d := int32(len(levels))
			var collect nextCollect
			exec.ForDynamic(len(current), 64, workers, func(lo, hi int) {
				var local []Vertex
				for i := lo; i < hi; i++ {
					u := current[i]
					//gapvet:ignore escape-in-kernel -- internal-iterator callback: the per-vertex lambda is the abstraction cost the paper observes for NWGraph; hoisting it would misstate the framework
					g.Neighbors(u, func(v Vertex) bool {
						if atomic.LoadInt32(&depth[v]) < 0 &&
							atomic.CompareAndSwapInt32(&depth[v], -1, d) {
							local = append(local, v)
						}
						return true
					})
				}
				collect.add(local)
			})
			next := collect.take()
			if len(next) == 0 {
				break
			}
			levels = append(levels, next)
			current = next
		}

		for l := 1; l < len(levels); l++ {
			level := levels[l]
			exec.ForDynamic(len(level), 64, workers, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					v := level[i]
					var s float64
					//gapvet:ignore escape-in-kernel -- internal-iterator callback: the per-vertex lambda is the abstraction cost the paper observes for NWGraph; hoisting it would misstate the framework
					g.InNeighbors(v, func(u Vertex) bool {
						if depth[u] == depth[v]-1 {
							s += sigma[u]
						}
						return true
					})
					sigma[v] = s
				}
			})
		}
		for l := len(levels) - 2; l >= 0; l-- {
			level := levels[l]
			exec.ForDynamic(len(level), 64, workers, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					u := level[i]
					var d float64
					//gapvet:ignore escape-in-kernel -- internal-iterator callback: the per-vertex lambda is the abstraction cost the paper observes for NWGraph; hoisting it would misstate the framework
					g.Neighbors(u, func(v Vertex) bool {
						if depth[v] == depth[u]+1 {
							d += sigma[u] / sigma[v] * (1 + delta[v])
						}
						return true
					})
					delta[u] = d
					if u != src {
						scores[u] += d
					}
				}
			})
		}
	}

	maxScore := 0.0
	for _, s := range scores {
		if s > maxScore {
			maxScore = s
		}
	}
	if maxScore > 0 {
		for i := range scores {
			scores[i] /= maxScore
		}
	}
	return scores
}

// TC counts triangles with a cyclic distribution of rows across workers —
// §V-F: "NWGraph's cyclic distribution of rows across threads led to near
// optimal load balancing" on skew-degree graphs.
func TC[G AdjacencyList](exec *par.Machine, g G, workers int) int64 {
	n := g.NumVertices()
	if workers < 1 {
		workers = 1
	}
	partial := make([]int64, workers)
	bufsA := make([][]Vertex, workers)
	bufsB := make([][]Vertex, workers)
	exec.ForCyclic(n, workers, func(w, a int) {
		var na []Vertex
		na, bufsA[w] = sortedNeighbors(g, Vertex(a), bufsA[w])
		var count int64
		for _, b := range na {
			if b > Vertex(a) {
				break
			}
			var nb []Vertex
			nb, bufsB[w] = sortedNeighbors(g, b, bufsB[w])
			it := 0
			for _, x := range nb {
				if x > b {
					break
				}
				for na[it] < x {
					it++
				}
				if na[it] == x {
					count++
				}
			}
		}
		partial[w] += count
	})
	var total int64
	for _, p := range partial {
		total += p
	}
	return total
}

// nextCollect merges per-chunk frontier fragments.
type nextCollect struct {
	mu  spin
	out []Vertex
}

func (c *nextCollect) add(local []Vertex) {
	if len(local) == 0 {
		return
	}
	c.mu.Lock()
	c.out = append(c.out, local...)
	c.mu.Unlock()
}
func (c *nextCollect) take() []Vertex { return c.out }

type spin struct{ v atomic.Int32 }

func (m *spin) Lock() {
	for !m.v.CompareAndSwap(0, 1) {
	}
}
func (m *spin) Unlock() { m.v.Store(0) }

// unionCAS hooks the higher root onto the lower (shared Afforest link). The
// two loads and the equality test are the per-edge fast path — once
// components converge nearly every call sees equal labels — and fit the
// inline budget; the CAS loop lives out of line in unionCASSlow, which
// re-loads under its own loop anyway.
func unionCAS(u, v Vertex, comp []Vertex) {
	if atomic.LoadInt32(&comp[u]) != atomic.LoadInt32(&comp[v]) {
		unionCASSlow(u, v, comp)
	}
}

// unionCASSlow repeatedly hooks the higher root onto the lower one with CAS.
// Kept out of line so unionCAS stays under the inline budget.
//
//go:noinline
func unionCASSlow(u, v Vertex, comp []Vertex) {
	p1 := atomic.LoadInt32(&comp[u])
	p2 := atomic.LoadInt32(&comp[v])
	for p1 != p2 {
		high, low := p1, p2
		if high < low {
			high, low = low, high
		}
		pHigh := atomic.LoadInt32(&comp[high])
		if pHigh == low {
			break
		}
		if pHigh == high && atomic.CompareAndSwapInt32(&comp[high], high, low) {
			break
		}
		p1 = atomic.LoadInt32(&comp[atomic.LoadInt32(&comp[high])])
		p2 = atomic.LoadInt32(&comp[low])
	}
}

func compressCAS(exec *par.Machine, comp []Vertex, workers int) {
	exec.ForBlocked(len(comp), workers, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			c := atomic.LoadInt32(&comp[u])
			for {
				cc := atomic.LoadInt32(&comp[c])
				if c == cc {
					break
				}
				c = cc
			}
			atomic.StoreInt32(&comp[u], c)
		}
	})
}

func frequentLabel(comp []Vertex) Vertex {
	const samples = 1024
	counts := make(map[Vertex]int, samples)
	n := uint64(len(comp))
	x := uint64(0x2545f4914f6cdd1d)
	for i := 0; i < samples; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		root := comp[(x>>17)%n]
		for root != comp[root] {
			root = comp[root]
		}
		counts[root]++
	}
	best, bestCount := Vertex(0), -1
	for c, k := range counts {
		if k > bestCount {
			best, bestCount = c, k
		}
	}
	return best
}

// relabelIfSkewed applies degree relabeling for TC when the heuristic fires,
// or uses the harness's untimed view in Optimized mode.
func relabelIfSkewed(g *graph.Graph, opt kernel.Options) *graph.Graph {
	u := opt.Undirected(g)
	if opt.Mode == kernel.Optimized && opt.RelabeledView != nil {
		return opt.RelabeledView
	}
	if graph.SkewedDegrees(u) {
		ru, _ := graph.DegreeRelabel(opt.Exec(), u)
		return ru
	}
	return u
}
