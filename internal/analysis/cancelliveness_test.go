package analysis

import "testing"

// The cancel-liveness cases use the fixture package name "spin", which is in
// the rule's kernel-package scope alongside the six framework reproductions.
func TestCancelLiveness(t *testing.T) {
	checkRule(t, CancelLiveness, []ruleCase{
		{
			name: "unpolled worklist loop",
			path: "gapbench/internal/spin",
			files: map[string]string{"bad.go": `package spin

func step(work []int) []int {
	return work[1:]
}

func Drain(work []int) {
	for len(work) > 0 {
		work = step(work)
	}
}
`},
			want: []string{"data-dependent loop in Drain never reaches a cancellation poll"},
		},
		{
			name: "direct poll keeps the loop live",
			path: "gapbench/internal/spin",
			files: map[string]string{"good.go": `package spin

import "gapbench/internal/kernel"

func step(work []int) []int {
	return work[1:]
}

func DrainPolite(work []int, opt kernel.Options) {
	for len(work) > 0 {
		if opt.Exec().Interrupted() {
			return
		}
		work = step(work)
	}
}
`},
			want: nil,
		},
		{
			name: "transitive poll through a helper keeps the loop live",
			path: "gapbench/internal/spin",
			files: map[string]string{"good.go": `package spin

import "gapbench/internal/kernel"

func politeStep(work []int, opt kernel.Options) []int {
	if opt.Exec().Interrupted() {
		return nil
	}
	return work[1:]
}

func DrainViaHelper(work []int, opt kernel.Options) {
	for len(work) > 0 {
		work = politeStep(work, opt)
	}
}
`},
			want: nil,
		},
		{
			name: "par schedule keeps the loop live",
			path: "gapbench/internal/spin",
			files: map[string]string{"good.go": `package spin

import "gapbench/internal/par"

func DrainParallel(work []int) {
	for len(work) > 0 {
		next := make([]int, 0, len(work))
		par.Default().ForBlocked(len(work), 2, func(lo, hi int) {
			_ = work[lo:hi]
		})
		work = next
	}
}
`},
			want: nil,
		},
		{
			name: "bounded and call-free shapes are exempt",
			path: "gapbench/internal/spin",
			files: map[string]string{"good.go": `package spin

func consume(v int) {}

func Shapes(xs []int) int {
	for i := 0; i < len(xs); i++ { // three-clause: bounded
		consume(xs[i])
	}
	i := 0
	for i < len(xs) { // condition-only but call-free: index arithmetic
		i++
	}
	return i
}
`},
			want: nil,
		},
		{
			name: "loop inside a spawned goroutine is exempt",
			path: "gapbench/internal/spin",
			files: map[string]string{"good.go": `package spin

func pull(ch chan int) int {
	return <-ch
}

func Spawner(ch chan int) {
	go func() {
		for {
			if pull(ch) < 0 {
				return
			}
		}
	}()
}
`},
			want: nil,
		},
		{
			name: "CAS retry loop is exempt",
			path: "gapbench/internal/spin",
			files: map[string]string{"good.go": `package spin

import "sync/atomic"

func CasMax(p *int32, v int32) {
	for {
		old := atomic.LoadInt32(p)
		if v <= old || atomic.CompareAndSwapInt32(p, old, v) {
			return
		}
	}
}
`},
			want: nil,
		},
		{
			name: "non-kernel packages are out of scope",
			path: "gapbench/internal/report",
			files: map[string]string{"main.go": `package report

func step(work []int) []int {
	return work[1:]
}

func Drain(work []int) {
	for len(work) > 0 {
		work = step(work)
	}
}
`},
			want: nil,
		},
	})
}
