// Addframework: the paper's §VI future work — "the most difficult part of
// this project was to work out procedures required to generate consistent
// results. Those same procedures can be used with other graph frameworks,
// allowing us to expand these data sets." This example does exactly that:
// it defines a seventh framework (a deliberately plain, serial, textbook
// implementation), runs it through the same verified benchmark procedure as
// the six reproduced frameworks, and prints its Table V row.
package main

import (
	"container/heap"
	"fmt"
	"log"

	"gapbench"
)

func main() {
	specs := gapbench.DefaultSuite(10)
	var inputs []*gapbench.Input
	var names []string
	for _, spec := range specs {
		in, err := gapbench.LoadInput(spec)
		if err != nil {
			log.Fatal(err)
		}
		defer in.Close() // drops the graph and every framework's prepared state
		inputs = append(inputs, in)
		names = append(names, spec.Name)
	}

	runner := gapbench.NewRunner()
	runner.Trials = 2
	frameworks := []gapbench.Framework{
		gapbench.FrameworkByName("GAP"), // the reference every ratio needs
		textbook{},                      // the newcomer under evaluation
	}
	results, err := runner.RunSuite(frameworks, inputs,
		[]gapbench.Mode{gapbench.Baseline}, nil, nil)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range results {
		if !r.Verified {
			log.Fatalf("%s %s on %s failed verification: %s", r.Framework, r.Kernel, r.Graph, r.Err)
		}
	}
	fmt.Println("A seventh framework, benchmarked under the paper's procedure:")
	fmt.Println()
	fmt.Print(gapbench.TableV(results, names))
	fmt.Println()
	fmt.Println("Note: on a single-core host at reduced scale, a clean serial")
	fmt.Println("implementation is competitive — the §VI observation that the")
	fmt.Println("reference \"often did better on Road with fewer cores precisely")
	fmt.Println("because it would reduce the synchronization burden\", taken to")
	fmt.Println("its limit. On a many-core machine the parallel frameworks pull")
	fmt.Println("ahead and this row turns red.")
}

// textbook is the simplest correct implementation of each kernel: serial,
// no direction optimization, no delta buckets, no sampling — the natural
// starting point any new framework would be measured from.
type textbook struct{}

func (textbook) Name() string { return "Textbook" }

// Prepare is the framework's untimed load phase. The runner calls it once
// per input, before the first cell, keeps what it returns with the input
// until the input closes, and hands it back to every kernel as
// Options.Prepared. Here PR's reciprocal out-degrees are computed once per
// input instead of once per trial. g is nil for the degree-relabeled view
// that only an Optimized TC cell reads, which needs nothing prepared here.
func (textbook) Prepare(g, _ *gapbench.Graph) any {
	if g == nil {
		return nil
	}
	return inverseDegrees(g)
}

// inverseDegrees returns 1/out-degree per vertex, 0 for a vertex with none.
func inverseDegrees(g *gapbench.Graph) []float64 {
	inv := make([]float64, g.NumNodes())
	for u := range inv {
		if d := g.OutDegree(gapbench.NodeID(u)); d > 0 {
			inv[u] = 1 / float64(d)
		}
	}
	return inv
}

func (textbook) BFS(g *gapbench.Graph, src gapbench.NodeID, _ gapbench.Options) []gapbench.NodeID {
	parent := make([]gapbench.NodeID, g.NumNodes())
	for i := range parent {
		parent[i] = -1
	}
	parent[src] = src
	queue := []gapbench.NodeID{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.OutNeighbors(u) {
			if parent[v] < 0 {
				parent[v] = u
				queue = append(queue, v)
			}
		}
	}
	return parent
}

// SSSP is plain binary-heap Dijkstra.
func (textbook) SSSP(g *gapbench.Graph, src gapbench.NodeID, _ gapbench.Options) []gapbench.Dist {
	const inf = int32(1<<31 - 1)
	dist := make([]gapbench.Dist, g.NumNodes())
	for i := range dist {
		dist[i] = inf
	}
	dist[src] = 0
	h := &distHeap{{src, 0}}
	for h.Len() > 0 {
		top := heap.Pop(h).(pair)
		if top.d > dist[top.v] {
			continue
		}
		ws := g.OutWeights(top.v)
		for i, v := range g.OutNeighbors(top.v) {
			if nd := top.d + ws[i]; nd < dist[v] {
				dist[v] = nd
				heap.Push(h, pair{v, nd})
			}
		}
	}
	return dist
}

func (textbook) PR(g *gapbench.Graph, opt gapbench.Options) []float64 {
	inv, ok := opt.Prepared.([]float64)
	if !ok {
		inv = inverseDegrees(g) // nothing prepared: convert inside the trial
	}
	n := int(g.NumNodes())
	const damping, tol = 0.85, 1e-4
	base := (1 - damping) / float64(n)
	ranks := make([]float64, n)
	contrib := make([]float64, n)
	for i := range ranks {
		ranks[i] = 1 / float64(n)
	}
	for it := 0; it < 100; it++ {
		dangling := 0.0
		for u := 0; u < n; u++ {
			if inv[u] > 0 {
				contrib[u] = ranks[u] * inv[u]
			} else {
				contrib[u] = 0
				dangling += ranks[u]
			}
		}
		share := damping * dangling / float64(n)
		delta := 0.0
		for v := 0; v < n; v++ {
			sum := 0.0
			for _, u := range g.InNeighbors(gapbench.NodeID(v)) {
				sum += contrib[u]
			}
			next := base + share + damping*sum
			if next > ranks[v] {
				delta += next - ranks[v]
			} else {
				delta += ranks[v] - next
			}
			ranks[v] = next
		}
		if delta < tol {
			break
		}
	}
	return ranks
}

func (textbook) CC(g *gapbench.Graph, _ gapbench.Options) []gapbench.NodeID {
	labels := make([]gapbench.NodeID, g.NumNodes())
	for i := range labels {
		labels[i] = -1
	}
	var queue []gapbench.NodeID
	for s := gapbench.NodeID(0); s < g.NumNodes(); s++ {
		if labels[s] >= 0 {
			continue
		}
		labels[s] = s
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			visit := func(v gapbench.NodeID) {
				if labels[v] < 0 {
					labels[v] = s
					queue = append(queue, v)
				}
			}
			for _, v := range g.OutNeighbors(u) {
				visit(v)
			}
			if g.Directed() {
				for _, v := range g.InNeighbors(u) {
					visit(v)
				}
			}
		}
	}
	return labels
}

func (textbook) BC(g *gapbench.Graph, sources []gapbench.NodeID, _ gapbench.Options) []float64 {
	n := int(g.NumNodes())
	scores := make([]float64, n)
	depth := make([]int32, n)
	sigma := make([]float64, n)
	delta := make([]float64, n)
	for _, src := range sources {
		for i := 0; i < n; i++ {
			depth[i], sigma[i], delta[i] = -1, 0, 0
		}
		depth[src], sigma[src] = 0, 1
		order := make([]gapbench.NodeID, 0, n)
		queue := []gapbench.NodeID{src}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			order = append(order, u)
			for _, v := range g.OutNeighbors(u) {
				if depth[v] < 0 {
					depth[v] = depth[u] + 1
					queue = append(queue, v)
				}
				if depth[v] == depth[u]+1 {
					sigma[v] += sigma[u]
				}
			}
		}
		for i := len(order) - 1; i >= 0; i-- {
			u := order[i]
			for _, v := range g.OutNeighbors(u) {
				if depth[v] == depth[u]+1 {
					delta[u] += sigma[u] / sigma[v] * (1 + delta[v])
				}
			}
			if u != src {
				scores[u] += delta[u]
			}
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

func (textbook) TC(g *gapbench.Graph, opt gapbench.Options) int64 {
	u := opt.Undirected(g)
	var count int64
	for a := gapbench.NodeID(0); a < u.NumNodes(); a++ {
		na := u.OutNeighbors(a)
		for _, b := range na {
			if b > a {
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

type pair struct {
	v gapbench.NodeID
	d gapbench.Dist
}
type distHeap []pair

func (h distHeap) Len() int           { return len(h) }
func (h distHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x any)        { *h = append(*h, x.(pair)) }
func (h *distHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }
