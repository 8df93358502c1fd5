// Package gap is a gapvet test fixture (never built): it prints from a
// kernel package, once through a method on an os package variable
// (timed-region-purity), allocates on a spawned hot path
// directly and through a cross-package call (alloc-in-timed-region), and
// reaches the OS through the sibling core package, which the transitive
// purity rule reports at the kernel-side call site.
package gap

import (
	"fmt"
	"os"

	"gapbench/cmd/gapvet/testdata/src/core"
)

// NoisyKernel logs progress from inside what would be a timed region.
func NoisyKernel(level int) {
	fmt.Printf("bfs level %d\n", level)
}

// HotAlloc allocates per element on a spawned path: one make directly in
// the goroutine, and one reached through core.Scratch across the package
// boundary.
func HotAlloc(out [][]int64) {
	done := make(chan struct{})
	go func() {
		for i := range out {
			buf := make([]int64, 8)
			copy(buf, core.Scratch(8))
			out[i] = buf
		}
		close(done)
	}()
	<-done
}

// Dump reaches os.Create through core.Spill; the purity rule reports the
// chain at this call site, naming its endpoint.
func Dump(name string) error {
	return core.Spill(name)
}

// Progress writes through a method on an os package variable: I/O with no
// pkg.Func call in sight.
func Progress() {
	_, _ = os.Stderr.WriteString("level done\n")
}
