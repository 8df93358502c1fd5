package charact_test

import (
	"strings"
	"testing"

	"gapbench/internal/charact"
	"gapbench/internal/generate"
	"gapbench/internal/graph"
	"gapbench/internal/verify"
)

func TestBFSProfileRoadVsKron(t *testing.T) {
	road, err := generate.Road(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	kron, err := generate.Kron(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	pr := charact.BFS(road, 0)
	pk := charact.BFS(kron, pickSource(kron))

	// The §VI topology story in numbers: Road needs orders of magnitude
	// more rounds than the low-diameter Kron graph.
	if pr.Rounds < 10*pk.Rounds {
		t.Fatalf("road rounds %d not >> kron rounds %d", pr.Rounds, pk.Rounds)
	}
	// Kron's BFS must actually use the pull direction in its dense middle;
	// Road's tiny frontiers must stay push-only.
	if pk.PullRounds == 0 {
		t.Error("kron BFS never switched to pull")
	}
	if pr.PullRounds*5 > pr.Rounds {
		t.Errorf("road BFS pulled %d of %d rounds; its thin frontiers should rarely justify it", pr.PullRounds, pr.Rounds)
	}
	if pr.PushRounds+pr.PullRounds != pr.Rounds {
		t.Error("push+pull rounds do not sum to total")
	}
}

func TestBFSProfileCountsAreConsistent(t *testing.T) {
	g, err := generate.Web(9, 2)
	if err != nil {
		t.Fatal(err)
	}
	src := pickSource(g)
	p := charact.BFS(g, src)
	if p.Rounds != len(p.FrontierSizes) {
		t.Fatalf("rounds %d != frontier records %d", p.Rounds, len(p.FrontierSizes))
	}
	// Total frontier vertices equals reachable count (every vertex enters
	// the frontier exactly once).
	var total int64
	for _, f := range p.FrontierSizes {
		total += f
	}
	reachable := int64(0)
	for _, d := range verify.BFSDepths(g, src) {
		if d >= 0 {
			reachable++
		}
	}
	if total != reachable {
		t.Fatalf("frontier total %d != reachable %d", total, reachable)
	}
	if p.MaxFrontier() <= 0 || p.EdgesPerRound() <= 0 {
		t.Fatal("degenerate profile statistics")
	}
}

// TestBFSFollowsGAPDirectionRule replays GAP's DOBFS direction rule over the
// BFS levels (verify.BFSDepths and out-degrees): push while the scout count
// stays at or below edgesToCheck/15, then pull while the next level is at
// least as large as this one or larger than n/18. Each level is one round in
// either direction, so charact's push/pull counts and frontier sizes must
// match the replay exactly on every suite graph.
func TestBFSFollowsGAPDirectionRule(t *testing.T) {
	for _, name := range generate.Names {
		t.Run(name, func(t *testing.T) {
			g, err := generate.ByName(name, 10, 1)
			if err != nil {
				t.Fatal(err)
			}
			src := pickSource(g)
			var size, degrees []int64 // per level: vertices, out-degree sum
			for v, d := range verify.BFSDepths(g, src) {
				if d < 0 {
					continue
				}
				for int(d) >= len(size) {
					size, degrees = append(size, 0), append(degrees, 0)
				}
				size[d]++
				degrees[d] += g.OutDegree(graph.NodeID(v))
			}

			var push, pull int
			edgesToCheck, scout, pulling := g.NumEdges(), degrees[0], false
			for d := range size {
				next := int64(0)
				if d+1 < len(size) {
					next = size[d+1]
				}
				if pulling || scout > edgesToCheck/15 {
					pull++
					pulling = next >= size[d] || next > int64(g.NumNodes())/18
					scout = 1
				} else {
					push++
					edgesToCheck -= scout
					if d+1 < len(size) {
						scout = degrees[d+1]
					}
				}
			}

			p := charact.BFS(g, src)
			if p.PushRounds != push || p.PullRounds != pull {
				t.Errorf("push/pull rounds %d/%d, GAP's rule gives %d/%d", p.PushRounds, p.PullRounds, push, pull)
			}
			if len(p.FrontierSizes) != len(size) {
				t.Fatalf("%d rounds, BFS has %d levels", len(p.FrontierSizes), len(size))
			}
			for d, f := range p.FrontierSizes {
				if f != size[d] {
					t.Fatalf("round %d frontier %d, level %d holds %d vertices", d, f, d, size[d])
				}
			}
		})
	}
}

func TestSSSPProfileDeltaControlsRounds(t *testing.T) {
	g, err := generate.Road(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	small := charact.SSSP(g, 0, 4)
	large := charact.SSSP(g, 0, 1024)
	// Wider buckets mean fewer synchronized passes — the knob GAP exposes.
	if large.Rounds >= small.Rounds {
		t.Fatalf("delta=1024 rounds %d not below delta=4 rounds %d", large.Rounds, small.Rounds)
	}
	// But wider buckets re-relax more edges.
	if large.EdgesExamined <= small.EdgesExamined/2 {
		t.Fatalf("suspicious edge counts: %d vs %d", large.EdgesExamined, small.EdgesExamined)
	}
}

func TestPRProfileConverges(t *testing.T) {
	g, err := generate.Urand(9, 4)
	if err != nil {
		t.Fatal(err)
	}
	p := charact.PR(g)
	if p.Rounds < 2 || p.Rounds >= 100 {
		t.Fatalf("PR rounds = %d, expected a converged iteration count", p.Rounds)
	}
	if p.EdgesExamined != int64(p.Rounds)*g.NumEdges() {
		t.Fatalf("PR edges %d != rounds x edges %d", p.EdgesExamined, int64(p.Rounds)*g.NumEdges())
	}
}

func TestReportRenders(t *testing.T) {
	g, err := generate.Kron(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := charact.BFS(g, pickSource(g))
	p.Graph = "Kron"
	out := charact.Report([]charact.Profile{p})
	for _, want := range []string{"Kron", "BFS", "frontier profile"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	if charact.Report(nil) == "" {
		t.Fatal("empty report should still render a header")
	}
}

func pickSource(g *graph.Graph) graph.NodeID {
	for v := int32(0); v < g.NumNodes(); v++ {
		if g.OutDegree(v) > 0 {
			return v
		}
	}
	return 0
}
