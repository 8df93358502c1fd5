// graphio_bench_test.go: the build-once-load-many evidence for the arena
// storage layer (DESIGN.md §3).
//
// BenchmarkGraphIO times the two ways a benchmark run can obtain the Kron
// graph:
//
//   - Regenerate: generator + counting-sort build from scratch — what every
//     run pays without serialized graphs;
//   - MmapV2: the format-v2 zero-copy path — header validation plus an mmap,
//     O(header) regardless of graph size.
//
// The input scale is GAPBENCH_MMAP_SCALE (log2 vertices, default 12 so the
// check.sh bit-rot tier stays cheap); the scale-20 cell, where the
// mmap-vs-regenerate gap is the headline number, is
//
//	GAPBENCH_MMAP_SCALE=20 go test -run '^$' -bench BenchmarkGraphIO -benchtime=1x -count=4 .
package gapbench_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"gapbench/internal/generate"
	"gapbench/internal/graph"
)

func mmapBenchScale() int {
	if s := os.Getenv("GAPBENCH_MMAP_SCALE"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v >= 4 && v <= 24 {
			return v
		}
	}
	return 12
}

func BenchmarkGraphIO(b *testing.B) {
	scale := mmapBenchScale()
	g, err := generate.ByName(generate.NameKron, scale, 42)
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	v2 := filepath.Join(dir, "kron.sg")
	if err := g.SaveSG(v2); err != nil {
		b.Fatal(err)
	}
	arenaBytes := g.Arena().Size()
	if err := g.Close(); err != nil {
		b.Fatal(err)
	}

	name := func(kind string) string { return fmt.Sprintf("%s/Kron-%d", kind, scale) }
	b.Run(name("Regenerate"), func(b *testing.B) {
		b.SetBytes(arenaBytes)
		for i := 0; i < b.N; i++ {
			rg, err := generate.ByName(generate.NameKron, scale, 42)
			if err != nil {
				b.Fatal(err)
			}
			if err := rg.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run(name("MmapV2"), func(b *testing.B) {
		b.SetBytes(arenaBytes)
		for i := 0; i < b.N; i++ {
			lg, err := graph.Load(v2)
			if err != nil {
				b.Fatal(err)
			}
			if !lg.Arena().Mapped() {
				b.Fatalf("%s loaded without an mmap", v2)
			}
			if err := lg.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
