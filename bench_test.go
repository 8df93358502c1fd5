// Benchmarks regenerating the paper's tables and ablating the design
// choices DESIGN.md calls out.
//
//   - BenchmarkTableI: graph generation + property computation (Table I).
//   - BenchmarkSuite: one sub-benchmark per (mode, kernel, graph, framework)
//     cell — the raw material of Tables IV and V. Table IV is the per-cell
//     minimum over frameworks; Table V is each framework's time relative to
//     the GAP rows.
//   - BenchmarkAblation*: the §VI levers — bucket fusion, async vs
//     bulk-synchronous execution, CC algorithm families, Jacobi vs
//     Gauss-Seidel, 32- vs 64-bit indices, relabeling, direction
//     optimization.
//
// The input scale is GAPBENCH_SCALE (log2 vertices, default 10) so the full
// sweep stays tractable; `cmd/gapbench -table IV -scale 12` produces the
// EXPERIMENTS.md numbers at the default reporting scale.
package gapbench_test

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"

	"gapbench/internal/core"
	"gapbench/internal/galois"
	"gapbench/internal/gap"
	"gapbench/internal/generate"
	"gapbench/internal/graph"
	"gapbench/internal/graphit"
	"gapbench/internal/grb"
	"gapbench/internal/kernel"
	"gapbench/internal/lagraph"
	"gapbench/internal/par"
)

func benchScale() int {
	if s := os.Getenv("GAPBENCH_SCALE"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v >= 4 && v <= 24 {
			return v
		}
	}
	return 10
}

var loadInputs = sync.OnceValue(func() []*core.Input {
	specs := core.DefaultSuite(benchScale())
	inputs := make([]*core.Input, len(specs))
	for i, spec := range specs {
		in, err := core.LoadInput(spec)
		if err != nil {
			panic(err)
		}
		inputs[i] = in
	}
	return inputs
})

func inputByName(name string) *core.Input {
	for _, in := range loadInputs() {
		if in.Spec.Name == name {
			return in
		}
	}
	panic("unknown benchmark graph " + name)
}

// benchWidth is the width of every benchmark's machine: fixed, so results
// are comparable across hosts.
const benchWidth = 8

// benchOptions mirrors core.Runner's rule sets on m, a machine the calling
// benchmark builds once at benchWidth and closes. Optimized options build the
// input's relabeled view on first use, so callers take them outside b.Run's
// timer.
func benchOptions(in *core.Input, mode kernel.Mode, m *par.Machine) kernel.Options {
	opt := kernel.Options{Mode: mode, Delta: in.Spec.Delta, UndirectedView: in.Undirected, Machine: m}
	if mode == kernel.Optimized {
		opt.GraphName = in.Spec.Name
		opt.RelabeledView = in.RelabeledView()
	}
	return opt
}

// BenchmarkTableI measures generating each benchmark graph and computing its
// Table I properties.
func BenchmarkTableI(b *testing.B) {
	for _, spec := range core.DefaultSuite(benchScale()) {
		b.Run(spec.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g, err := generate.ByName(spec.Name, spec.Scale, spec.Seed)
				if err != nil {
					b.Fatal(err)
				}
				_ = graph.ComputeStats(g)
			}
		})
	}
}

// BenchmarkSuite times every Table IV/V cell.
func BenchmarkSuite(b *testing.B) {
	frameworks := core.Frameworks()
	inputs := loadInputs()
	m := par.NewMachine(benchWidth)
	defer m.Close()
	for _, mode := range []kernel.Mode{kernel.Baseline, kernel.Optimized} {
		for _, k := range core.Kernels {
			for _, in := range inputs {
				for _, fw := range frameworks {
					name := fmt.Sprintf("%s/%s/%s/%s", mode, k, in.Spec.Name, fw.Name())
					opt := benchOptions(in, mode, m)
					opt.Prepared = in.Prepared(fw, mode == kernel.Optimized && k == core.TC)
					b.Run(name, func(b *testing.B) {
						runCellBench(b, fw, k, in, opt)
					})
				}
			}
		}
	}
}

func runCellBench(b *testing.B, fw kernel.Framework, k core.Kernel, in *core.Input, opt kernel.Options) {
	g := in.Graph
	b.ReportMetric(float64(g.NumEdges()), "edges")
	switch k {
	case core.BFS:
		for i := 0; i < b.N; i++ {
			_ = fw.BFS(g, in.Sources[i%len(in.Sources)], opt)
		}
	case core.SSSP:
		for i := 0; i < b.N; i++ {
			_ = fw.SSSP(g, in.Sources[i%len(in.Sources)], opt)
		}
	case core.PR:
		for i := 0; i < b.N; i++ {
			_ = fw.PR(g, opt)
		}
	case core.CC:
		for i := 0; i < b.N; i++ {
			_ = fw.CC(g, opt)
		}
	case core.BC:
		for i := 0; i < b.N; i++ {
			_ = fw.BC(g, in.BCRoots[i%len(in.BCRoots)], opt)
		}
	case core.TC:
		for i := 0; i < b.N; i++ {
			_ = fw.TC(g, opt)
		}
	}
}

// BenchmarkAblationBucketFusion isolates the bucket-fusion optimization
// (GraphIt-originated, adopted by the GAP reference) on the high-diameter
// Road graph, where §VI reports it cuts synchronization rounds ~10x.
func BenchmarkAblationBucketFusion(b *testing.B) {
	in := inputByName(generate.NameRoad)
	m := par.NewMachine(benchWidth)
	defer m.Close()
	for _, fused := range []bool{true, false} {
		name := "Unfused"
		if fused {
			name = "Fused"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = gap.DeltaStep(in.Graph, in.Sources[i%len(in.Sources)], in.Spec.Delta, kernel.Options{Machine: m}, fused)
			}
		})
	}
}

// BenchmarkAblationLightHeavy contrasts the GAP reference's simplified
// delta-stepping (all edges per bucket pass) with the full Meyer-Sanders
// light/heavy split, across a low-delta (many buckets) and high-delta
// (heavy re-relaxation risk) setting on Road.
func BenchmarkAblationLightHeavy(b *testing.B) {
	in := inputByName(generate.NameRoad)
	m := par.NewMachine(benchWidth)
	defer m.Close()
	for _, delta := range []kernel.Dist{16, 256} {
		b.Run(fmt.Sprintf("Simplified/delta=%d", delta), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = gap.DeltaStep(in.Graph, in.Sources[i%len(in.Sources)], delta, kernel.Options{Machine: m}, true)
			}
		})
		b.Run(fmt.Sprintf("LightHeavy/delta=%d", delta), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = gap.DeltaStepLightHeavy(in.Graph, in.Sources[i%len(in.Sources)], delta, kernel.Options{Machine: m})
			}
		})
	}
}

// BenchmarkAblationAsyncBFS contrasts Galois' asynchronous and
// bulk-synchronous BFS on the high-diameter Road graph and the low-diameter
// Urand graph — the crossover behind its Baseline Urand collapse (§V-A).
func BenchmarkAblationAsyncBFS(b *testing.B) {
	m := par.NewMachine(benchWidth)
	defer m.Close()
	for _, gname := range []string{generate.NameRoad, generate.NameUrand} {
		in := inputByName(gname)
		b.Run("Async/"+gname, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = galois.AsyncBFS(m, in.Graph, in.Sources[i%len(in.Sources)])
			}
		})
		b.Run("Sync/"+gname, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = galois.SyncBFS(m, in.Graph, in.Sources[i%len(in.Sources)])
			}
		})
	}
}

// BenchmarkAblationCC races the four CC algorithm families of Table III on
// Road and Urand: sampling Afforest (GAP/Galois/NWGraph), label propagation
// (GraphIt — §V-C's biggest gap), FastSV (LAGraph), and hybrid
// Shiloach-Vishkin (GKC).
func BenchmarkAblationCC(b *testing.B) {
	algos := []struct {
		name string
		fw   kernel.Framework
	}{
		{"Afforest", gap.New()},
		{"LabelProp", graphit.New()},
		{"FastSV", lagraph.New()},
		{"HybridSV", core.FrameworkByName("GKC")},
	}
	m := par.NewMachine(benchWidth)
	defer m.Close()
	for _, gname := range []string{generate.NameRoad, generate.NameUrand} {
		in := inputByName(gname)
		for _, a := range algos {
			opt := benchOptions(in, kernel.Baseline, m)
			opt.Prepared = in.Prepared(a.fw, false)
			b.Run(a.name+"/"+gname, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_ = a.fw.CC(in.Graph, opt)
				}
			})
		}
	}
}

// BenchmarkAblationPR contrasts Jacobi (GAP) with Gauss-Seidel (Galois) and
// reports each arm's sweeps/op from its own machine's region count: every
// arm runs two regions a sweep. §V-D
// credits Gauss-Seidel with converging in fewer sweeps; here it does on every
// graph, by most on the high-diameter Road. Kron's dangling vertices are all
// isolated, Twitter's have in-edges, so the two arms check that the
// Gauss-Seidel kernels route dangling mass through a unit-mass share (see
// kernel.PRMass) whichever way it arrives.
func BenchmarkAblationPR(b *testing.B) {
	arms := []struct {
		name string
		pr   func(*graph.Graph, kernel.Options) []float64
	}{
		{"Jacobi", gap.New().PR},
		{"GaussSeidel", galois.New().PR},
	}
	m := par.NewMachine(benchWidth)
	defer m.Close()
	for _, gname := range []string{generate.NameRoad, generate.NameKron, generate.NameTwitter} {
		in := inputByName(gname)
		for _, arm := range arms {
			b.Run(arm.name+"/"+gname, func(b *testing.B) {
				m.ResetStats()
				opt := benchOptions(in, kernel.Baseline, m)
				for i := 0; i < b.N; i++ {
					_ = arm.pr(in.Graph, opt)
				}
				b.ReportMetric(float64(m.Stats().Regions)/2/float64(b.N), "sweeps/op")
			})
		}
	}
}

// BenchmarkAblationIndexWidth measures one structural SpMV sweep through
// 32-bit CSR (the substrate all frameworks but GraphBLAS use) against the
// 64-bit GraphBLAS matrix — the index-width tax §V discusses.
func BenchmarkAblationIndexWidth(b *testing.B) {
	in := inputByName(generate.NameKron)
	g := in.Graph
	n := int(g.NumNodes())
	b.Run("32bit", func(b *testing.B) {
		x := make([]float64, n)
		for i := range x {
			x[i] = 1
		}
		out := make([]float64, n)
		for i := 0; i < b.N; i++ {
			for v := 0; v < n; v++ {
				sum := 0.0
				for _, u := range g.InNeighbors(graph.NodeID(v)) {
					sum += x[u]
				}
				out[v] = sum
			}
		}
	})
	b.Run("64bit", func(b *testing.B) {
		at := grb.FromGraph(g, true, false)
		x := grb.NewFull[float64](int64(n), 1)
		out := grb.NewFull[float64](int64(n), 0)
		serial := par.NewMachine(1) // one worker, like the 32-bit arm
		defer serial.Close()
		for i := 0; i < b.N; i++ {
			grb.MxVFullInto(serial, at, x, grb.PlusFirst(), out)
		}
	})
}

// BenchmarkAblationRelabel measures the triangle count on the power-law
// Twitter graph with relabeling included (Baseline rules), excluded
// (Optimized rules), and skipped entirely — the §V-F lever.
func BenchmarkAblationRelabel(b *testing.B) {
	in := inputByName(generate.NameTwitter)
	m := par.NewMachine(benchWidth)
	defer m.Close()
	b.Run("RelabelTimed", func(b *testing.B) {
		opt := benchOptions(in, kernel.Baseline, m)
		for i := 0; i < b.N; i++ {
			_ = gap.New().TC(in.Graph, opt)
		}
	})
	untimed := benchOptions(in, kernel.Optimized, m)
	b.Run("RelabelUntimed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = gap.New().TC(in.Graph, untimed)
		}
	})
	b.Run("NoRelabel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = gap.OrderedCountBench(m, in.Undirected)
		}
	})
}

// forkJoinForBlocked is the pre-machine par.ForBlocked kept as an ablation
// reference: a fresh goroutine fork-join per region, the launch discipline
// every par helper used before the persistent worker pool existed. The
// machine replaced it precisely because this spawn+join cost is paid once
// per region — per BFS level, per delta-stepping bucket — which is the
// per-round overhead the paper's §V-A Road analysis attributes the
// high-diameter slowdowns to.
func forkJoinForBlocked(n, workers int, fn func(lo, hi int)) {
	if workers <= 1 || n < 2 {
		fn(0, n)
		return
	}
	if workers > n {
		workers = n
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// BenchmarkAblationRegionLaunch ablates the PR's executor refactor: the same
// blocked region run on the persistent machine (channel wake of parked
// workers) versus a per-region goroutine fork-join, across region sizes and
// round counts. The shapes mirror real kernel behavior — many tiny regions
// is a high-diameter BFS/SSSP on Road (thousands of levels with small
// frontiers), few large regions is PageRank on Kron (a handful of full-graph
// sweeps). Pooled dispatch should win the small-region/many-round corner and
// be a wash when regions are large enough to amortize the launch.
func BenchmarkAblationRegionLaunch(b *testing.B) {
	const workers = 8
	m := par.NewMachine(workers)
	defer m.Close()
	shapes := []struct{ size, rounds int }{
		{256, 2048},  // Road-like: tiny frontiers, thousands of rounds
		{4096, 256},  // mid-size frontiers
		{131072, 16}, // Kron/Urand-like: few full sweeps
	}
	data := make([]int64, 131072)
	body := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			data[i]++
		}
	}
	for _, sh := range shapes {
		name := fmt.Sprintf("size=%d/rounds=%d", sh.size, sh.rounds)
		b.Run("ForkJoin/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for r := 0; r < sh.rounds; r++ {
					forkJoinForBlocked(sh.size, workers, body)
				}
			}
		})
		b.Run("Pooled/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for r := 0; r < sh.rounds; r++ {
					m.ForBlocked(sh.size, workers, body)
				}
			}
		})
	}
}

// BenchmarkAblationDirectionOpt contrasts GraphIt's direction-optimizing
// schedule with the push-only schedule its Optimized Road BFS uses (§V-A:
// "it does not use direction optimization (always push)").
func BenchmarkAblationDirectionOpt(b *testing.B) {
	m := par.NewMachine(benchWidth)
	defer m.Close()
	for _, gname := range []string{generate.NameRoad, generate.NameKron} {
		in := inputByName(gname)
		b.Run("DirOpt/"+gname, func(b *testing.B) {
			opt := benchOptions(in, kernel.Baseline, m)
			for i := 0; i < b.N; i++ {
				_ = graphit.New().BFS(in.Graph, in.Sources[i%len(in.Sources)], opt)
			}
		})
		b.Run("PushOnly/"+gname, func(b *testing.B) {
			opt := benchOptions(in, kernel.Optimized, m)
			opt.GraphName = "Road" // forces the push-only schedule
			for i := 0; i < b.N; i++ {
				_ = graphit.New().BFS(in.Graph, in.Sources[i%len(in.Sources)], opt)
			}
		})
	}
}
