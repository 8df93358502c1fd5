package graph

import "gapbench/internal/par"

// DegreeRelabel returns a copy of g with vertices renumbered in decreasing
// out-degree order, plus the permutation used (perm[old] = new). Triangle
// counting implementations relabel this way so that each edge is oriented
// from the lower-degree endpoint toward the higher-degree one, shrinking the
// intersection search space; the GAP rules require the relabeling time to be
// counted unless the Optimized rule set is in effect.
//
// Degrees are bounded by n, so the ordering is a counting sort — histogram
// over (maxDegree - degree), exclusive scan, stable scatter — O(n + maxdeg)
// instead of the comparison sort's O(n log n). The scatter's stability is the
// determinism guarantee the old stable sort provided: vertices are walked in
// id order, so equal-degree vertices keep ascending ids.
//
// The two parallel regions run on exec, sized to it: a kernel that relabels
// inside its timed trial passes the trial's machine, so the regions land in
// the cell's SyncStats and see its cancel token. A nil exec is the
// process-default machine, for the untimed load-phase callers.
func DegreeRelabel(exec *par.Machine, g *Graph) (*Graph, []NodeID) {
	n := g.NumNodes()
	perm := make([]NodeID, n)
	if n > 0 {
		maxDeg := exec.ReduceMaxInt64(int(n), 0, func(lo, hi int) int64 {
			var mx int64
			for u := lo; u < hi; u++ {
				if d := g.OutDegree(NodeID(u)); d > mx {
					mx = d
				}
			}
			return mx
		})
		// Bin b holds degree maxDeg-b, so ascending bins are descending
		// degrees and the scatter position is directly the new vertex id.
		h := exec.ShardedHistogram(int(n), int(maxDeg)+1, 0, func(i int) int {
			return int(maxDeg - g.OutDegree(NodeID(i)))
		})
		// A fired cancel token makes the machine skip region bodies, so the
		// counts — and the perm a scatter would write from them — are
		// partial. The harness discards a cancelled trial's result; hand the
		// input back rather than rebuild a CSR from a non-permutation.
		if exec.Interrupted() {
			return g, perm
		}
		h.Scatter(func(i int, pos int64) { perm[i] = NodeID(pos) })
		if exec.Interrupted() {
			return g, perm
		}
	}
	return applyPermutation(g, perm, LayoutDegree), perm
}

// applyPermutation rebuilds both CSR sides under the permutation into a
// fresh storage arena stamped with the given layout tag.
func applyPermutation(g *Graph, perm []NodeID, layout Layout) *Graph {
	n := g.NumNodes()
	mIn := int64(0)
	if g.directed {
		mIn = int64(len(g.inNeigh))
	}
	a := newHeapArena(layoutFor(n, g.NumEdges(), mIn, g.directed, g.Weighted()))
	inv := make([]NodeID, n)
	for old, nw := range perm {
		inv[nw] = NodeID(old)
	}
	permuteCSR(perm, inv, g.outIndex, g.inIndex, g.inNeigh, g.inWeight,
		a.int64s(secOutIndex), a.int32s(secOutNeigh), a.int32s(secOutWeight))
	if g.directed {
		permuteCSR(perm, inv, g.inIndex, g.outIndex, g.outNeigh, g.outWeight,
			a.int64s(secInIndex), a.int32s(secInNeigh), a.int32s(secInWeight))
	}
	return graphFromArena(a, layout)
}

// permuteCSR fills one CSR side (index, neigh, weight) of the renamed graph
// without sorting. srcIndex is the same side of the source graph and gives
// the row lengths; opp* is the source's opposite side (the in-CSR when
// filling out-rows and vice versa; the two alias when undirected), whose row
// v lists exactly the rows of this side that contain v. Walking the new ids
// in ascending order and appending each one, with its edge's weight, at the
// cursor of every row that contains it fills each row in strictly increasing
// order — transposeInto's stability argument applied to a renaming. weight
// is nil for unweighted (or empty) graphs.
func permuteCSR(perm, inv []NodeID, srcIndex, oppIndex []int64, oppNeigh []NodeID, oppWeight []Weight, index []int64, neigh []NodeID, weight []Weight) {
	for old, nw := range perm {
		index[nw+1] = srcIndex[old+1] - srcIndex[old]
	}
	for i := range perm {
		index[i+1] += index[i]
	}
	cursor := make([]int64, len(perm))
	copy(cursor, index)
	for nw, old := range inv {
		for e := oppIndex[old]; e < oppIndex[old+1]; e++ {
			row := perm[oppNeigh[e]]
			c := cursor[row]
			cursor[row] = c + 1
			neigh[c] = NodeID(nw)
			if weight != nil {
				weight[c] = oppWeight[e]
			}
		}
	}
}
