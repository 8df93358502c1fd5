// Package gapbench is the public API of this repository: a Go reproduction
// of "Evaluation of Graph Analytics Frameworks Using the GAP Benchmark
// Suite" (IISWC 2020). It exposes the shared CSR graph substrate, the five
// synthetic benchmark graphs, six graph-framework reproductions (the GAP
// reference, SuiteSparse GraphBLAS + LAGraph, Galois, GraphIt, GKC, and
// NWGraph), and the benchmark harness that regenerates the paper's tables.
//
// Quick start:
//
//	g, _ := gapbench.GenerateGraph("Kron", 14, 42)
//	fw := gapbench.FrameworkByName("GAP")
//	parents := fw.BFS(g, 0, gapbench.Options{})
//
// See examples/ for runnable programs and DESIGN.md for the system map.
package gapbench

import (
	"gapbench/internal/charact"
	"gapbench/internal/core"
	"gapbench/internal/generate"
	"gapbench/internal/graph"
	"gapbench/internal/kernel"
	"gapbench/internal/ldbc"
	"gapbench/internal/report"
	"gapbench/internal/verify"
)

// Core graph types, aliased from the substrate so user code and internal
// code share one representation.
type (
	// Graph is an immutable CSR graph with out- and in-adjacency.
	Graph = graph.Graph
	// NodeID is a 32-bit vertex identifier.
	NodeID = graph.NodeID
	// Edge is one endpoint pair for graph construction.
	Edge = graph.Edge
	// WEdge is a weighted edge for graph construction.
	WEdge = graph.WEdge
	// BuildOptions configures graph construction.
	BuildOptions = graph.BuildOptions
	// Stats holds Table I-style graph properties.
	Stats = graph.Stats
)

// Framework execution types.
type (
	// Framework is the six-kernel interface every reproduction implements.
	Framework = kernel.Framework
	// Options carries per-run knobs (mode, workers, delta, views).
	Options = kernel.Options
	// Mode selects the Baseline or Optimized rule set.
	Mode = kernel.Mode
	// Dist is an SSSP distance.
	Dist = kernel.Dist
)

// Benchmark harness types.
type (
	// GraphSpec describes one benchmark input.
	GraphSpec = core.GraphSpec
	// Input is a prepared benchmark input (graph, views, sources).
	Input = core.Input
	// Runner executes benchmark cells.
	Runner = core.Runner
	// Result is one timed, verified benchmark cell.
	Result = core.Result
	// Kernel names one of the six benchmark kernels.
	Kernel = core.Kernel
	// Status classifies a trial/cell outcome under the fault model
	// (DESIGN.md §9).
	Status = core.Status
	// TrialRecord is the per-attempt fault log entry on a Result.
	TrialRecord = core.TrialRecord
	// RetryPolicy decides which trial failures get re-attempted.
	RetryPolicy = core.RetryPolicy
)

// Rule sets.
const (
	Baseline  = kernel.Baseline
	Optimized = kernel.Optimized
)

// The benchmark kernels.
const (
	BFS  = core.BFS
	SSSP = core.SSSP
	CC   = core.CC
	PR   = core.PR
	BC   = core.BC
	TC   = core.TC
)

// The trial/cell statuses of the fault model, from best to worst.
const (
	StatusOK           = core.OK
	StatusVerifyFailed = core.VerifyFailed
	StatusPanicked     = core.Panicked
	StatusTimedOut     = core.TimedOut
	StatusSkipped      = core.Skipped
)

// ReadJournal loads the cells of a JSONL run journal (see
// Runner.JournalPath); a missing file is an empty journal.
func ReadJournal(path string) ([]Result, error) { return core.ReadJournal(path) }

// GraphNames lists the five benchmark graphs in Table I order.
var GraphNames = generate.Names

// BuildGraph constructs a CSR graph from an edge list.
func BuildGraph(edges []Edge, opt BuildOptions) (*Graph, error) {
	return graph.Build(edges, opt)
}

// BuildWeightedGraph constructs a weighted CSR graph from an edge list.
func BuildWeightedGraph(edges []WEdge, opt BuildOptions) (*Graph, error) {
	return graph.BuildWeighted(edges, opt)
}

// GenerateGraph synthesizes one of the five benchmark graphs ("Road",
// "Twitter", "Web", "Kron", "Urand") at the given scale (log2 of the
// approximate vertex count).
func GenerateGraph(name string, scale int, seed uint64) (*Graph, error) {
	return generate.ByName(name, scale, seed)
}

// LoadGraph mmap-loads a serialized graph written by (*Graph).SaveSG; release
// it with Close.
func LoadGraph(path string) (*Graph, error) { return graph.Load(path) }

// ComputeStats derives Table I-style properties of a graph.
func ComputeStats(g *Graph) Stats { return graph.ComputeStats(g) }

// Frameworks returns all six evaluated frameworks, the GAP reference first.
func Frameworks() []Framework { return core.Frameworks() }

// FrameworkByName returns the named framework ("GAP", "SuiteSparse",
// "Galois", "GraphIt", "GKC", "NWGraph") or nil.
func FrameworkByName(name string) Framework { return core.FrameworkByName(name) }

// DefaultSuite returns the five benchmark graph specs at the given base
// scale (the paper's Table I line-up, scaled down).
func DefaultSuite(baseScale int) []GraphSpec { return core.DefaultSuite(baseScale) }

// LoadInput generates a benchmark input with all untimed views and sources.
func LoadInput(spec GraphSpec) (*Input, error) { return core.LoadInput(spec) }

// NewRunner returns a benchmark runner with the paper's defaults.
func NewRunner() *Runner { return core.NewRunner() }

// VerifyBFS checks a BFS parent array against the spec (exported for
// downstream users adding their own frameworks).
func VerifyBFS(g *Graph, src NodeID, parent []NodeID) error {
	return verify.CheckBFS(g, src, parent)
}

// VerifySSSP checks SSSP distances against a Dijkstra oracle.
func VerifySSSP(g *Graph, src NodeID, dist []Dist) error {
	return verify.CheckSSSP(g, src, dist)
}

// VerifyPR checks PageRank scores against the fixed-point residual test.
func VerifyPR(g *Graph, ranks []float64) error { return verify.CheckPR(g, ranks) }

// VerifyCC checks component labels against connectivity.
func VerifyCC(g *Graph, labels []NodeID) error { return verify.CheckCC(g, labels) }

// VerifyBC checks betweenness scores against a serial Brandes oracle.
func VerifyBC(g *Graph, sources []NodeID, scores []float64) error {
	return verify.CheckBC(g, sources, scores)
}

// VerifyTC checks a triangle count against the exact oracle.
func VerifyTC(g *Graph, count int64) error { return verify.CheckTC(g, count) }

// TableI renders the graph-property table for the given named graphs.
func TableI(names []string, stats []Stats) string { return report.TableI(names, stats) }

// TableII renders the framework-attribute table.
func TableII(frameworks []Framework) string { return report.TableII(frameworks) }

// TableIII renders the per-kernel algorithm table.
func TableIII(frameworks []Framework) string { return report.TableIII(frameworks) }

// TableIV renders the fastest-time table from suite results.
func TableIV(results []Result, graphs []string) string { return report.TableIV(results, graphs) }

// TableV renders the speedup heat map from suite results.
func TableV(results []Result, graphs []string) string { return report.TableV(results, graphs) }

// ResultsCSV renders results as CSV.
func ResultsCSV(results []Result) string { return report.CSV(results) }

// CDLP runs LDBC Graphalytics community detection by label propagation for
// maxRounds synchronous rounds (an extension kernel beyond the six GAP
// kernels; see internal/ldbc).
func CDLP(g *Graph, maxRounds, workers int) []NodeID {
	return ldbc.CDLP(g, maxRounds, workers)
}

// LCC computes per-vertex local clustering coefficients (LDBC Graphalytics
// extension kernel).
func LCC(g *Graph, workers int) []float64 { return ldbc.LCC(g, workers) }

// CommunitySizes summarizes a CDLP labeling into descending community sizes.
func CommunitySizes(labels []NodeID) []int { return ldbc.CommunitySizes(labels) }

// Profile is a workload-characterization record (rounds, edge traffic,
// frontier sizes) from an instrumented kernel run.
type Profile = charact.Profile

// CharacterizeBFS profiles a direction-optimizing BFS run from src.
func CharacterizeBFS(g *Graph, src NodeID) Profile { return charact.BFS(g, src) }

// CharacterizeSSSP profiles a delta-stepping run from src.
func CharacterizeSSSP(g *Graph, src NodeID, delta Dist) Profile {
	return charact.SSSP(g, src, delta)
}

// CharacterizePR profiles a Jacobi PageRank run.
func CharacterizePR(g *Graph) Profile { return charact.PR(g) }

// CharacterizationReport renders profiles as the workload table + frontier
// sparklines of cmd/workload.
func CharacterizationReport(profiles []Profile) string { return charact.Report(profiles) }
