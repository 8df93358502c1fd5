package gkc

import (
	"math"
	"sync/atomic"

	"gapbench/internal/graph"
	"gapbench/internal/kernel"
	"gapbench/internal/par"
)

// pagerank is GKC's Gauss-Seidel PageRank with a 4-way unrolled gather loop
// standing in for the AVX-256 gathers of the original (§III-E notes GKC
// found AVX-256 faster than AVX-512 on the test platform).
func pagerank(exec *par.Machine, g *graph.Graph) []float64 {
	n := int(g.NumNodes())
	if n == 0 {
		return nil
	}
	base := (1 - kernel.PRDamping) / float64(n)
	ranks := make([]float64, n)
	contrib := make([]uint64, n) // float64 bits of rank/out-degree
	invDeg := make([]float64, n)
	for v := 0; v < n; v++ {
		ranks[v] = 1 / float64(n)
		if d := g.OutDegree(graph.NodeID(v)); d > 0 {
			invDeg[v] = 1 / float64(d)
			contrib[v] = math.Float64bits(ranks[v] * invDeg[v])
		}
	}
	for it := 0; it < kernel.PRMaxIters; it++ {
		if exec.Interrupted() {
			return ranks // partial; the harness discards cancelled trials
		}
		// Scores are stored scaled by mass; see kernel.PRMass.
		mass, dangling := kernel.PRMass(exec, ranks, invDeg)
		c := 1 / mass
		danglingShare := kernel.PRDamping * c * dangling / float64(n)
		dc := kernel.PRDamping * c
		delta := exec.ReduceFloat64(n, 0, func(lo, hi int) float64 {
			var d float64
			for vi := lo; vi < hi; vi++ {
				v := graph.NodeID(vi)
				neigh := g.InNeighbors(v)
				var s0, s1, s2, s3 float64
				k := 0
				// 4-lane unrolled gather ("SIMD"); the atomic loads compile
				// to plain MOVs here.
				for ; k+4 <= len(neigh); k += 4 {
					s0 += math.Float64frombits(atomic.LoadUint64(&contrib[neigh[k]]))
					s1 += math.Float64frombits(atomic.LoadUint64(&contrib[neigh[k+1]]))
					s2 += math.Float64frombits(atomic.LoadUint64(&contrib[neigh[k+2]]))
					s3 += math.Float64frombits(atomic.LoadUint64(&contrib[neigh[k+3]]))
				}
				sum := s0 + s1 + s2 + s3
				// Range over the tail slice: a range loop needs no bounds
				// check on neigh (indexing with the unrolled loop's exit k
				// defeats the prove pass, which loses k's non-negativity
				// across the k += 4 loop).
				for _, w := range neigh[k:] {
					sum += math.Float64frombits(atomic.LoadUint64(&contrib[w]))
				}
				next := base + danglingShare + dc*sum
				d += math.Abs(next - c*ranks[v])
				s := next * mass
				ranks[v] = s
				if invDeg[v] != 0 {
					atomic.StoreUint64(&contrib[v], math.Float64bits(s*invDeg[v]))
				}
			}
			return d
		})
		if delta < kernel.PRTolerance {
			break
		}
	}
	return kernel.PRUnitMass(ranks)
}

// hybridSV is GKC's hybrid Shiloach-Vishkin connected components: flat,
// cache-friendly sweeps over the CSR edge arrays (hooking) alternated with
// pointer-jumping sweeps, iterated to a fixed point. No sampling phase —
// which is exactly why it does not collapse on Urand the way sampling-based
// Afforest does (§V-C reproduces Sutton et al.'s observation), while paying
// more passes than Afforest on graphs with an early giant component.
func hybridSV(exec *par.Machine, g *graph.Graph) []graph.NodeID {
	n := int(g.NumNodes())
	comp := make([]graph.NodeID, n)
	for i := range comp {
		comp[i] = graph.NodeID(i)
	}
	if n == 0 {
		return comp
	}
	// One change flag for every sweep: hookSweep's chunk closures capture the
	// pointer by value, so no per-sweep heap cell is allocated.
	var sweepChanged atomic.Bool
	for {
		if exec.Interrupted() {
			return comp
		}
		// Hooking sweep: linear scan of the out-CSR (and in-CSR for directed
		// graphs) — sequential memory traffic, the "SIMD-friendly" layout.
		changed := hookSweep(exec, g, comp, false, &sweepChanged)
		if g.Directed() {
			if hookSweep(exec, g, comp, true, &sweepChanged) {
				changed = true
			}
		}
		// Shortcut sweep: full pointer jumping.
		exec.ForBlocked(n, 0, func(lo, hi int) {
			for u := lo; u < hi; u++ {
				c := atomic.LoadInt32(&comp[u])
				for {
					cc := atomic.LoadInt32(&comp[c])
					if cc == c {
						break
					}
					c = cc
				}
				atomic.StoreInt32(&comp[u], c)
			}
		})
		if !changed {
			return comp
		}
	}
}

// hookSweep hooks every edge's higher root under the lower one, returning
// whether anything changed. The flag is caller-owned so the chunk closure
// captures only a pointer, not a per-sweep heap cell.
func hookSweep(exec *par.Machine, g *graph.Graph, comp []graph.NodeID, useIn bool, changed *atomic.Bool) bool {
	n := int(g.NumNodes())
	changed.Store(false)
	exec.ForBlocked(n, 0, func(lo, hi int) {
		localChanged := false
		for u := lo; u < hi; u++ {
			var neigh []graph.NodeID
			if useIn {
				neigh = g.InNeighbors(graph.NodeID(u))
			} else {
				neigh = g.OutNeighbors(graph.NodeID(u))
			}
			cu := atomic.LoadInt32(&comp[u])
			for _, v := range neigh {
				cv := atomic.LoadInt32(&comp[v])
				if cu == cv {
					continue
				}
				high, low := cu, cv
				if high < low {
					high, low = low, high
				}
				// Hook only roots (classic SV): comp[high] == high.
				if atomic.CompareAndSwapInt32(&comp[high], high, low) {
					localChanged = true
				}
				cu = atomic.LoadInt32(&comp[u])
			}
		}
		if localChanged {
			changed.Store(true)
		}
	})
	return changed.Load()
}

// brandes is GKC's Brandes BC: level-synchronous with the same serial
// small-frontier fast path as BFS, keeping it within a few percent of GAP
// everywhere (Table V: 97–107%).
func brandes(exec *par.Machine, g *graph.Graph, sources []graph.NodeID) []float64 {
	n := int(g.NumNodes())
	scores := make([]float64, n)
	if n == 0 {
		return scores
	}
	depth := make([]int32, n)
	sigma := make([]float64, n)
	delta := make([]float64, n)

	for _, src := range sources {
		exec.ForBlocked(n, 0, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				//gapvet:ignore atomic-plain-mix -- reset phase: barrier-separated from the forward phase's CAS on depth
				depth[i] = -1
				sigma[i] = 0
				delta[i] = 0
			}
		})
		depth[src] = 0
		sigma[src] = 1

		levels := [][]graph.NodeID{{src}}
		current := levels[0]
		for len(current) > 0 {
			if exec.Interrupted() {
				return scores
			}
			d := int32(len(levels))
			var next []graph.NodeID
			if len(current) < serialThreshold {
				for _, u := range current {
					for _, v := range g.OutNeighbors(u) {
						if depth[v] < 0 {
							depth[v] = d
							next = append(next, v)
						}
					}
				}
			} else {
				shared := graph.NewSlidingQueue(int64(n))
				exec.ForDynamic(len(current), 64, 0, func(lo, hi int) {
					//gapvet:ignore alloc-in-timed-region -- QueueBuffer idiom: one buffer per 64-vertex chunk, amortized over the chunk's edges
					local := make([]graph.NodeID, 0, 256)
					for i := lo; i < hi; i++ {
						u := current[i]
						for _, v := range g.OutNeighbors(u) {
							if atomic.LoadInt32(&depth[v]) < 0 &&
								atomic.CompareAndSwapInt32(&depth[v], -1, d) {
								local = append(local, v)
							}
						}
					}
					if len(local) > 0 {
						base := shared.Reserve(int64(len(local)))
						for i, v := range local {
							shared.Write(base+int64(i), v)
						}
					}
				})
				shared.SlideWindow()
				next = append(next, shared.Frontier()...)
			}
			if len(next) == 0 {
				break
			}
			levels = append(levels, next)
			current = next
		}

		for l := 1; l < len(levels); l++ {
			level := levels[l]
			exec.ForDynamic(len(level), 128, 0, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					v := level[i]
					var s float64
					for _, u := range g.InNeighbors(v) {
						if depth[u] == depth[v]-1 {
							s += sigma[u]
						}
					}
					sigma[v] = s
				}
			})
		}
		for l := len(levels) - 2; l >= 0; l-- {
			level := levels[l]
			exec.ForDynamic(len(level), 128, 0, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					u := level[i]
					var dd float64
					for _, v := range g.OutNeighbors(u) {
						if depth[v] == depth[u]+1 {
							dd += sigma[u] / sigma[v] * (1 + delta[v])
						}
					}
					delta[u] = dd
					if u != src {
						scores[u] += dd
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

// leeLowTC is the Lee & Low triangle count: build the forward (upper-
// triangular) adjacency once, then count each u < v < w once by intersecting
// forward lists. For high-degree rows a per-worker marker array turns each
// intersection into O(|fwd(v)|) membership tests against the row visited
// last — the cache-reuse trick §III-E/§V-F describes ("set intersections
// with vectors that were previously visited, thereby increasing data reuse
// in caches") — while low-degree rows use a plain cursor merge.
func leeLowTC(exec *par.Machine, u *graph.Graph) int64 {
	n := int(u.NumNodes())
	// Forward adjacency: neighbors strictly greater than the vertex.
	index := make([]int64, n+1)
	for v := 0; v < n; v++ {
		neigh := u.OutNeighbors(graph.NodeID(v))
		k := lowerBound(neigh, graph.NodeID(v)+1)
		index[v+1] = index[v] + int64(len(neigh)-k)
	}
	fwd := make([]graph.NodeID, index[n])
	exec.ForBlocked(n, 0, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			neigh := u.OutNeighbors(graph.NodeID(v))
			k := lowerBound(neigh, graph.NodeID(v)+1)
			copy(fwd[index[v]:index[v+1]], neigh[k:])
		}
	})
	row := func(v graph.NodeID) []graph.NodeID { return fwd[index[v]:index[v+1]] }

	const markerThreshold = 64
	slots := exec.Size()
	partial := make([]int64, slots)
	markers := make([][]bool, slots)
	for w := range markers {
		markers[w] = make([]bool, n)
	}
	// One machine slot per worker pulls dynamic chunks off a shared cursor:
	// the slot id w keys the private marker array, and any single slot can
	// drain the cursor to completion, so the schedule is correct even when
	// slots run sequentially. (This was a hand-rolled goroutine fork-join
	// before the machine existed.)
	var cursor atomicCursor
	exec.ForWorker(slots, slots, func(w, _, _ int) {
		mark := markers[w]
		var count int64
		for {
			lo, hi := cursor.take(n, 32)
			if lo >= n {
				break
			}
			for a := lo; a < hi; a++ {
				na := row(graph.NodeID(a))
				if len(na) >= markerThreshold {
					// Marker path: one pass to set, O(1) membership per
					// candidate, one pass to clear.
					for _, b := range na {
						mark[b] = true
					}
					for _, b := range na {
						for _, w2 := range row(b) {
							if mark[w2] {
								count++
							}
						}
					}
					for _, b := range na {
						mark[b] = false
					}
				} else {
					for _, b := range na {
						count += mergeFwd(na, row(b))
					}
				}
			}
		}
		partial[w] = count
	})
	var total int64
	for _, p := range partial {
		total += p
	}
	return total
}

// atomicCursor hands out dynamic chunks of the vertex range.
type atomicCursor struct{ next atomic.Int64 }

func (c *atomicCursor) take(n, chunk int) (int, int) {
	lo := int(c.next.Add(int64(chunk))) - chunk
	hi := lo + chunk
	if hi > n {
		hi = n
	}
	return lo, hi
}

// mergeFwd counts common elements of two sorted forward lists with a cursor
// merge.
func mergeFwd(x, y []graph.NodeID) int64 {
	var count int64
	i, j := 0, 0
	for i < len(x) && j < len(y) {
		xi, yj := x[i], y[j]
		switch {
		case xi < yj:
			i++
		case xi > yj:
			j++
		default:
			count++
			i++
			j++
		}
	}
	return count
}

// lowerBound returns the first index in sorted xs with xs[i] >= x.
func lowerBound(xs []graph.NodeID, x graph.NodeID) int {
	lo, hi := 0, len(xs)
	for lo < hi {
		mid := (lo + hi) / 2
		if xs[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// serialPrefixTC counts triangles with the plain prefix-cursor method and no
// parallel fan-out at all — the cheapest possible path for small sparse
// graphs like Road, where any setup or scheduling overhead dwarfs the count
// itself.
func serialPrefixTC(u *graph.Graph) int64 {
	var count int64
	n := int(u.NumNodes())
	for a := 0; a < n; a++ {
		na := u.OutNeighbors(graph.NodeID(a))
		for _, b := range na {
			if b > graph.NodeID(a) {
				break
			}
			nb := u.OutNeighbors(b)
			it := 0
			for _, w := range nb {
				if w > b {
					break
				}
				for na[it] < w {
					it++
				}
				if na[it] == w {
					count++
				}
			}
		}
	}
	return count
}
