package graph

import (
	"math"
	"slices"
)

// DegreeDistribution classifies a graph's out-degree distribution the way the
// paper's Table I does.
type DegreeDistribution string

// Degree distribution classes from Table I.
const (
	DistBounded DegreeDistribution = "bounded" // road networks: max degree is a small constant
	DistPower   DegreeDistribution = "power"   // social/web/Kronecker: heavy tail
	DistNormal  DegreeDistribution = "normal"  // Erdős–Rényi: concentrated around the mean
)

// Stats summarizes a graph with the properties reported in Table I.
type Stats struct {
	NumNodes       int32
	NumEdges       int64 // undirected-sense edge count
	Directed       bool
	AvgDegree      float64
	MaxDegree      int64
	Distribution   DegreeDistribution
	ApproxDiameter int64
}

// ComputeStats derives Table I-style properties. The diameter is a lower
// bound found by repeated double-sweep BFS (exact diameters on these graph
// sizes are infeasible, and Table I itself reports approximations).
func ComputeStats(g *Graph) Stats {
	s := Stats{
		NumNodes: g.NumNodes(),
		NumEdges: g.NumEdgesUndirected(),
		Directed: g.Directed(),
	}
	if g.NumNodes() == 0 {
		return s
	}
	s.AvgDegree = float64(g.NumEdgesUndirected()) / float64(g.NumNodes())
	for u := int32(0); u < g.NumNodes(); u++ {
		if d := g.OutDegree(u); d > s.MaxDegree {
			s.MaxDegree = d
		}
	}
	s.Distribution = ClassifyDegrees(g)
	s.ApproxDiameter = ApproxDiameter(g, 4)
	return s
}

// ClassifyDegrees buckets the out-degree distribution into the three classes
// Table I uses. The discriminators follow the sampling heuristic the paper
// attributes to Galois and GAP: a heavy tail (max degree far above average)
// means power law; a small constant max degree means bounded; otherwise the
// distribution is concentrated (normal).
func ClassifyDegrees(g *Graph) DegreeDistribution {
	n := g.NumNodes()
	if n == 0 {
		return DistBounded
	}
	// For directed graphs classify on total (in+out) degree: a social or web
	// graph's heavy tail lives in its in-degree (followers, inbound links).
	degree := func(u NodeID) int64 {
		d := g.OutDegree(u)
		if g.Directed() {
			d += g.InDegree(u)
		}
		return d
	}
	var total int64
	var maxDeg int64
	for u := int32(0); u < n; u++ {
		d := degree(u)
		total += d
		if d > maxDeg {
			maxDeg = d
		}
	}
	avg := float64(total) / float64(n)
	var sumSq float64
	for u := int32(0); u < n; u++ {
		diff := float64(degree(u)) - avg
		sumSq += diff * diff
	}
	cv := 0.0
	if avg > 0 {
		cv = math.Sqrt(sumSq/float64(n)) / avg
	}
	// Median via a deterministic sample (exact enough for classification).
	sample := make([]int64, 0, 1024)
	x := uint64(0x1234567887654321)
	for i := 0; i < 1024; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		sample = append(sample, degree(NodeID((x>>17)%uint64(n))))
	}
	slices.Sort(sample)
	median := float64(sample[len(sample)/2])

	switch {
	case maxDeg <= 24 && avg <= 12:
		return DistBounded
	// A heavy tail shows up either as a large coefficient of variation or
	// as a maximum degree far above the median (hub pages, celebrities).
	case cv > 1.5 || float64(maxDeg) > 8*median:
		return DistPower
	default:
		return DistNormal
	}
}

// ApproxDiameter lower-bounds the diameter with the classic double-sweep
// heuristic, restarted `sweeps` times from the farthest vertex found so far.
// Directed graphs are swept over the union of out- and in-adjacency (the
// paper's diameters are for the underlying undirected structure).
func ApproxDiameter(g *Graph, sweeps int) int64 {
	n := g.NumNodes()
	if n == 0 {
		return 0
	}
	depth := make([]int32, n)
	// Start from the highest-degree vertex: on power-law graphs this lands in
	// the core immediately, and on meshes it is as good as any start.
	start := NodeID(0)
	var best int64 = -1
	for u := int32(0); u < n; u++ {
		if d := g.OutDegree(u); d > best {
			best, start = d, u
		}
	}
	var ecc int64
	for s := 0; s < sweeps; s++ {
		far, e := bfsEccentricity(g, start, depth)
		if e > ecc {
			ecc = e
		}
		if far == start {
			break
		}
		start = far
	}
	return ecc
}

// bfsEccentricity runs an undirected-sense BFS from src, returning the last
// vertex reached and its depth. The scratch slice is reused across sweeps.
func bfsEccentricity(g *Graph, src NodeID, depth []int32) (NodeID, int64) {
	for i := range depth {
		depth[i] = -1
	}
	depth[src] = 0
	queue := make([]NodeID, 0, 1024)
	queue = append(queue, src)
	last, lastDepth := src, int64(0)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		du := depth[u]
		visit := func(v NodeID) {
			if depth[v] < 0 {
				depth[v] = du + 1
				if int64(du+1) > lastDepth {
					lastDepth, last = int64(du+1), v
				}
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
	return last, lastDepth
}

// SkewedDegrees is a sampling heuristic shared by the triangle-counting
// implementations: it reports whether the degree distribution is skewed
// enough that degree relabeling is likely to pay for itself. It samples up
// to 1000 vertex degrees with a fixed probe sequence and reports true when
// the graph is dense enough to matter (average degree >= 10) and the sample
// mean exceeds 1.3x the sample median — the GAP reference's
// WorthRelabelling test.
func SkewedDegrees(g *Graph) bool {
	n := int64(g.NumNodes())
	if n == 0 {
		return false
	}
	if g.NumEdges()/n < 10 {
		return false
	}
	const samples = 1000
	degrees := make([]int64, 0, samples)
	x := uint64(0xdeadbeefcafef00d)
	for i := 0; i < samples; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		degrees = append(degrees, g.OutDegree(NodeID((x>>17)%uint64(n))))
	}
	slices.Sort(degrees)
	median := degrees[len(degrees)/2]
	var sum int64
	for _, d := range degrees {
		sum += d
	}
	mean := float64(sum) / float64(len(degrees))
	return mean/1.3 > float64(median)
}
