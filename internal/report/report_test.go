package report_test

import (
	"os"
	"strings"
	"testing"

	"gapbench/internal/core"
	"gapbench/internal/graph"
	"gapbench/internal/kernel"
	"gapbench/internal/report"
)

func sampleResults() []core.Result {
	return []core.Result{
		{Framework: "GAP", Kernel: core.BFS, Graph: "Kron", Mode: kernel.Baseline, Seconds: 0.2, AvgSeconds: 0.25, Trials: 2, Verified: true},
		{Framework: "GKC", Kernel: core.BFS, Graph: "Kron", Mode: kernel.Baseline, Seconds: 0.1, AvgSeconds: 0.1, Trials: 2, Verified: true},
		{Framework: "Galois", Kernel: core.BFS, Graph: "Kron", Mode: kernel.Baseline, Seconds: 0.4, AvgSeconds: 0.4, Trials: 2, Verified: true},
		{Framework: "GAP", Kernel: core.BFS, Graph: "Kron", Mode: kernel.Optimized, Seconds: 0.15, AvgSeconds: 0.15, Trials: 2, Verified: true},
		{Framework: "GKC", Kernel: core.BFS, Graph: "Kron", Mode: kernel.Optimized, Seconds: 0.3, AvgSeconds: 0.3, Trials: 2, Status: core.VerifyFailed, Verified: false, Err: "boom"},
		{Framework: "GraphIt", Kernel: core.BFS, Graph: "Kron", Mode: kernel.Baseline, Seconds: -1, Trials: 2, Status: core.TimedOut, Verified: false, Err: "deadline (1s) exceeded"},
	}
}

func TestTableI(t *testing.T) {
	stats := []graph.Stats{{
		NumNodes: 10, NumEdges: 20, Directed: true, AvgDegree: 2.0,
		Distribution: graph.DistPower, ApproxDiameter: 3,
	}}
	out := report.TableI([]string{"Kron"}, stats)
	for _, want := range []string{"Kron", "10", "20", "power", "TABLE I"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I missing %q:\n%s", want, out)
		}
	}
}

func TestTableIIAndIII(t *testing.T) {
	fws := core.Frameworks()
	ii := report.TableII(fws)
	for _, want := range []string{"GAP", "SuiteSparse", "Galois", "GraphIt", "GKC", "NWGraph", "sparse linear algebra"} {
		if !strings.Contains(ii, want) {
			t.Errorf("Table II missing %q", want)
		}
	}
	iii := report.TableIII(fws)
	for _, want := range []string{"Direction-optimizing", "Delta-stepping", "Afforest", "Label Propagation", "FastSV", "Shiloach-Vishkin", "Gauss-Seidel", "Jacobi", "Brandes", "Lee & Low"} {
		if !strings.Contains(iii, want) {
			t.Errorf("Table III missing %q", want)
		}
	}
}

func TestTableIVPicksWinnerAndSkipsUnverified(t *testing.T) {
	out := report.TableIV(sampleResults(), []string{"Kron"})
	if !strings.Contains(out, "0.1000s [GKC]") {
		t.Errorf("baseline winner wrong:\n%s", out)
	}
	// Optimized: GKC failed verification, so GAP wins despite being slower
	// than the unverified time.
	if !strings.Contains(out, "0.1500s [GAP]") {
		t.Errorf("unverified result not excluded:\n%s", out)
	}
}

func TestTableVRatios(t *testing.T) {
	out := report.TableV(sampleResults(), []string{"Kron"})
	if !strings.Contains(out, "200.00%") { // GKC baseline: 0.2/0.1
		t.Errorf("missing GKC 200%%:\n%s", out)
	}
	if !strings.Contains(out, "50.00%") { // Galois baseline: 0.2/0.4
		t.Errorf("missing Galois 50%%:\n%s", out)
	}
}

func TestCSV(t *testing.T) {
	out := report.CSV(sampleResults())
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 7 {
		t.Fatalf("CSV has %d lines, want header+6", len(lines))
	}
	if !strings.HasPrefix(lines[0], "mode,graph,kernel,framework,status") {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.Contains(out, `"boom"`) {
		t.Error("CSV missing quoted error")
	}
	// Non-OK cells export their status and empty timing columns, never -1.
	if !strings.Contains(out, "GraphIt,TimedOut,,,,") {
		t.Errorf("timed-out cell should have status + empty timings:\n%s", out)
	}
	if strings.Contains(out, "-1.000000") {
		t.Errorf("CSV leaked a -1 sentinel second:\n%s", out)
	}
}

// TestTablesTakeUnverifiedOKCells: a -noverify run's cells are OK but not
// Verified, and they fill Tables IV and V exactly as the same cells checked.
func TestTablesTakeUnverifiedOKCells(t *testing.T) {
	checked := sampleResults()
	unchecked := sampleResults()
	for i := range unchecked {
		unchecked[i].Verified = false
	}
	graphs := []string{"Kron"}
	if got, want := report.TableIV(unchecked, graphs), report.TableIV(checked, graphs); got != want {
		t.Errorf("Table IV of unverified cells:\n%s\nwant:\n%s", got, want)
	}
	if got, want := report.TableV(unchecked, graphs), report.TableV(checked, graphs); got != want {
		t.Errorf("Table V of unverified cells:\n%s\nwant:\n%s", got, want)
	}
}

func TestTableIVAndVSkipNonOKCells(t *testing.T) {
	// A timed-out cell must neither win Table IV nor contribute a Table V
	// ratio, even if a bogus positive time is attached.
	res := []core.Result{
		{Framework: "GAP", Kernel: core.PR, Graph: "Road", Mode: kernel.Baseline, Seconds: 0.2, Trials: 1, Verified: true},
		{Framework: "GKC", Kernel: core.PR, Graph: "Road", Mode: kernel.Baseline, Seconds: 0.0001, Trials: 1, Status: core.TimedOut, Verified: false, Err: "deadline"},
	}
	out := report.TableIV(res, []string{"Road"})
	if !strings.Contains(out, "[GAP]") || strings.Contains(out, "[GKC]") {
		t.Errorf("Table IV let a non-OK cell place:\n%s", out)
	}
	if sp := core.SpeedupVsReference(res); len(sp) != 0 {
		t.Errorf("speedups from non-OK cells: %v", sp)
	}
}

func TestMarkdownRenderers(t *testing.T) {
	res := sampleResults()
	md := report.MarkdownTableV(res, []string{"Kron"})
	for _, want := range []string{"### Table V (Baseline)", "| Framework | Kernel | Kron |", "200.00%", "|---|---|---|"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown Table V missing %q:\n%s", want, md)
		}
	}
	md4 := report.MarkdownTableIV(res, []string{"Kron"})
	for _, want := range []string{"### Table IV (Baseline)", "(**GKC**)"} {
		if !strings.Contains(md4, want) {
			t.Errorf("markdown Table IV missing %q:\n%s", want, md4)
		}
	}
	// Unverified Optimized GKC excluded: GAP must win that cell.
	if !strings.Contains(md4, "0.1500s (**GAP**)") {
		t.Errorf("markdown Table IV kept unverified result:\n%s", md4)
	}
}

// goldenResults is a fixed sweep with every shape the Table IV/V writers
// branch on: two graphs, both modes, a kernel nobody ran, a graph one
// framework skipped, a failed-verification cell faster than the winner, a
// timed-out cell, and a framework with no reference time to compare against.
func goldenResults() []core.Result {
	ok := func(fw string, k core.Kernel, g string, m kernel.Mode, sec float64) core.Result {
		return core.Result{Framework: fw, Kernel: k, Graph: g, Mode: m, Seconds: sec, AvgSeconds: sec, Trials: 1, Verified: true}
	}
	return append(sampleResults(),
		ok("GAP", core.BFS, "Road", kernel.Baseline, 0.5),
		ok("Galois", core.BFS, "Road", kernel.Baseline, 0.125),
		ok("GAP", core.TC, "Kron", kernel.Baseline, 2),
		ok("GKC", core.TC, "Kron", kernel.Baseline, 0.75),
		ok("GraphIt", core.TC, "Kron", kernel.Baseline, 3),
		ok("Galois", core.SSSP, "Road", kernel.Baseline, 0.25), // no GAP SSSP: wins Table IV, absent from Table V
		ok("GAP", core.PR, "Road", kernel.Optimized, 1),
		ok("LAGraph", core.PR, "Road", kernel.Optimized, 4),
		core.Result{Framework: "NWGraph", Kernel: core.PR, Graph: "Road", Mode: kernel.Optimized, Seconds: -1, Trials: 1, Status: core.Panicked, Err: "boom"},
	)
}

// TestTablesIVAndVGolden pins both renderings of both tables byte for byte.
func TestTablesIVAndVGolden(t *testing.T) {
	res, graphs := goldenResults(), []string{"Kron", "Road"}
	got := "== TableIV\n" + report.TableIV(res, graphs) +
		"== TableV\n" + report.TableV(res, graphs) +
		"== MarkdownTableIV\n" + report.MarkdownTableIV(res, graphs) +
		"== MarkdownTableV\n" + report.MarkdownTableV(res, graphs)
	want, err := os.ReadFile("testdata/tables_iv_v.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("Tables IV/V changed; got:\n%s\nwant:\n%s", got, want)
	}
}
