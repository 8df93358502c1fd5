package serve

import (
	"encoding/json"
	"math"
	"testing"
	"time"

	"gapbench/internal/core"
	"gapbench/internal/graph"
	"gapbench/internal/kernel"
)

// planServer is a server over two scale-6 graphs, Kron (undirected) and
// Twitter (directed), both reach-indexed, for tests that only plan requests.
func planServer(tb testing.TB) *Server {
	tb.Helper()
	kron := loadInput(tb, core.GraphSpec{Name: "Kron", Scale: 6, Seed: 1, Delta: 16, SourceSeed: 5})
	twitter := loadInput(tb, core.GraphSpec{Name: "Twitter", Scale: 6, Seed: 1, Delta: 16, SourceSeed: 5})
	srv, err := NewServer(Config{PoolSize: 1, Workers: 1}, []*core.Input{kron, twitter}, []kernel.Framework{stubFramework{"Stub"}})
	if err != nil {
		tb.Fatal(err)
	}
	if srv.reach["Kron"].reached == nil || srv.reach["Twitter"].reached == nil {
		tb.Fatalf("reach indexes = %v, want both graphs with reach counts", srv.reach)
	}
	tb.Cleanup(func() { _ = srv.Shutdown(5 * time.Second) })
	return srv
}

// TestPlanClampsHugeBudget: a budget_ms so large that it overflows a
// time.Duration is still a request above the cap, and gets the cap — not the
// wrapped, already-spent budget.
func TestPlanClampsHugeBudget(t *testing.T) {
	srv := planServer(t)
	for _, ms := range []int64{math.MaxInt64, 9223372036854776} {
		p, resp := srv.plan(Request{Kernel: "BFS", Graph: "Twitter", Source: 1, BudgetMS: ms})
		if resp != nil {
			t.Fatalf("budget_ms %d: refused: %+v", ms, resp)
		}
		if want := srv.cfg.maxBudget(); p.budget != want {
			t.Errorf("budget_ms %d: budget = %v, want the cap %v", ms, p.budget, want)
		}
	}
}

// FuzzRequest drives arbitrary request lines through the daemon's decode and
// plan path. Whatever the bytes, plan must not panic, and an accepted plan
// must be safe to execute: a live budget within the cap, vertex ids in
// range, a PR top-k within the snapshot, a snapshot slot exactly for PR, the
// reach index (and no slot, no kernel run) for every CC query and for every
// target-less BFS or SSSP on a graph whose index has reach counts, and a
// kernel run for every SSSP to a target.
func FuzzRequest(f *testing.F) {
	for _, seed := range []string{
		`{"kernel":"BFS","graph":"Twitter","source":1,"budget_ms":9223372036854775807}`,
		`{"kernel":"SSSP","graph":"Kron","source":2,"budget_ms":9223372036854776}`,
		`{"kernel":"BFS","graph":"Kron","source":-1}`,
		`{"kernel":"CC","graph":"Twitter","vertex":-7}`,
		`{"kernel":"SSSP","graph":"Kron","source":0,"target":-3}`,
		`{"op":"reboot"}`,
		`{"kernel":"TC","graph":"Kron"}`,
		`{"kernel":"BFS","graph":"Kron","source":0,"target":3}`,
		`{"kernel":"SSSP","graph":"Twitter","source":4,"target":9,"budget_ms":50}`,
		`{"kernel":" pr ","graph":"Twitter","k":100000}`,
		`{"kernel":"PR","graph":"Kron","k":-4}`,
		`{"op":"query","kernel":"CC","graph":"Kron","vertex":63,"framework":"Stub"}`,
		`{"kernel":"BFS","graph":"Twitter","source":5}`,
		`{"kernel":"SSSP","graph":"Twitter","source":7,"target":0}`,
	} {
		f.Add([]byte(seed))
	}
	srv := planServer(f)
	maxB := srv.cfg.maxBudget()
	f.Fuzz(func(t *testing.T, line []byte) {
		var req Request
		if json.Unmarshal(line, &req) != nil {
			return
		}
		if op, err := normalizeOp(req.Op); err != nil || op != OpQuery {
			return
		}
		p, resp := srv.plan(req)
		if resp != nil {
			return
		}
		n := int64(p.in.Graph.NumNodes())
		if p.budget <= 0 || p.budget > maxB {
			t.Errorf("budget %v outside (0, %v]", p.budget, maxB)
		}
		inRange := func(v graph.NodeID) bool { return v >= 0 && int64(v) < n }
		if !inRange(p.src) || !inRange(p.vertex) || (req.Target != nil && !inRange(p.target)) {
			t.Errorf("source %d, target %d or vertex %d outside [0, %d)", p.src, p.target, p.vertex, n)
		}
		if p.k == core.PR && (p.topk < 1 || p.topk > min(snapshotTopK, int(n))) {
			t.Errorf("topk %d outside [1, min(%d, %d)]", p.topk, snapshotTopK, n)
		}
		if (p.slot != nil) != (p.k == core.PR) {
			t.Errorf("%s on %s has snapshot slot %v", p.k, p.in.Spec.Name, p.slot)
		}
		indexed := srv.reach[p.in.Spec.Name].reached != nil
		switch {
		case p.k == core.PR:
			if p.reach != nil {
				t.Errorf("PR on %s is answered from the reach index", p.in.Spec.Name)
			}
		case p.k == core.CC:
			if p.reach == nil {
				t.Errorf("CC on %s is not a reach-index read", p.in.Spec.Name)
			}
		case req.Target == nil:
			if indexed && (p.reach == nil || p.slot != nil) {
				t.Errorf("target-less %s on indexed %s is not a reach-index read (reach %v, slot %v)", p.k, p.in.Spec.Name, p.reach, p.slot)
			}
		default: // an SSSP to a target; plan refuses a BFS target
			if p.k != core.SSSP || p.reach != nil || p.slot != nil {
				t.Errorf("%s to target %d on %s is not a kernel run", p.k, p.target, p.in.Spec.Name)
			}
		}
	})
}
