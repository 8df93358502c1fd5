package analysis

import "testing"

func TestParClosureRace(t *testing.T) {
	checkRule(t, ParClosureRace, []ruleCase{
		{
			name: "captured accumulator write is flagged",
			path: "gapbench/internal/demo",
			files: map[string]string{"bad.go": `package demo

import "gapbench/internal/par"

func Sum(xs []int64) int64 {
	var total int64
	par.Default().For(len(xs), 0, func(i int) {
		total += xs[i]
	})
	return total
}
`},
			want: []string{`bad.go:8: [par-closure-race] write to captured variable "total" inside par.For closure`},
		},
		{
			name: "captured flag write and increment are flagged",
			path: "gapbench/internal/demo",
			files: map[string]string{"bad.go": `package demo

import "gapbench/internal/par"

func Scan(n int) (bool, int) {
	changed := false
	count := 0
	par.Default().ForDynamic(n, 64, 0, func(lo, hi int) {
		changed = true
		count++
	})
	return changed, count
}
`},
			want: []string{
				`write to captured variable "changed" inside par.ForDynamic closure`,
				`write to captured variable "count" inside par.ForDynamic closure`,
			},
		},
		{
			name: "element writes and locals are clean",
			path: "gapbench/internal/demo",
			files: map[string]string{"ok.go": `package demo

import "gapbench/internal/par"

func Fill(dst []int64) {
	par.Default().For(len(dst), 0, func(i int) {
		local := int64(i) * 2
		local++
		dst[i] = local
	})
}
`},
			want: nil,
		},
		{
			name: "per-worker partials with reduce are clean",
			path: "gapbench/internal/demo",
			files: map[string]string{"ok.go": `package demo

import "gapbench/internal/par"

func Sum(xs []int64) int64 {
	return par.Default().ReduceInt64(len(xs), 0, func(lo, hi int) int64 {
		var partial int64
		for i := lo; i < hi; i++ {
			partial += xs[i]
		}
		return partial
	})
}
`},
			want: nil,
		},
		{
			name: "per-worker offset-slice scatter is clean",
			path: "gapbench/internal/demo",
			files: map[string]string{"ok.go": `package demo

import "gapbench/internal/par"

// The counting-sort scatter: each worker bumps cursors in its own offset
// slice and writes output cells at the yielded positions. All writes are
// index expressions on captured slices (disjoint ranges by construction),
// which must not be flagged.
func Scatter(keys []int, offsets [][]int64, out []int64) {
	par.Default().ForWorker(len(keys), len(offsets), func(w, lo, hi int) {
		off := offsets[w]
		for i := lo; i < hi; i++ {
			k := keys[i]
			pos := off[k]
			off[k] = pos + 1
			out[pos] = int64(i)
		}
	})
}
`},
			want: nil,
		},
		{
			name: "shared scatter cursor is flagged",
			path: "gapbench/internal/demo",
			files: map[string]string{"bad.go": `package demo

import "gapbench/internal/par"

func BrokenScatter(keys []int, out []int64) {
	var cursor int64
	par.Default().ForWorker(len(keys), 0, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			out[cursor] = int64(keys[i])
			cursor++
		}
	})
}
`},
			want: []string{`write to captured variable "cursor" inside par.ForWorker closure`},
		},
		{
			name: "mutex-guarded closure is trusted",
			path: "gapbench/internal/demo",
			files: map[string]string{"ok.go": `package demo

import (
	"sync"

	"gapbench/internal/par"
)

func Sum(xs []int64) int64 {
	var mu sync.Mutex
	var total int64
	par.Default().For(len(xs), 0, func(i int) {
		mu.Lock()
		total += xs[i]
		mu.Unlock()
	})
	return total
}
`},
			want: nil,
		},
		{
			name: "nested closure still sees capture across the par boundary",
			path: "gapbench/internal/demo",
			files: map[string]string{"bad.go": `package demo

import "gapbench/internal/par"

func Walk(n int, visit func(func())) {
	done := 0
	par.Default().For(n, 0, func(i int) {
		visit(func() {
			done = i
		})
	})
	_ = done
}
`},
			want: []string{`write to captured variable "done" inside par.For closure`},
		},
		{
			name: "machine method closures are checked like the shims",
			path: "gapbench/internal/demo",
			files: map[string]string{"bad.go": `package demo

import "gapbench/internal/par"

func Sum(exec *par.Machine, xs []int64) int64 {
	var total int64
	exec.ForDynamic(len(xs), 64, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			total += xs[i]
		}
	})
	return total
}
`},
			want: []string{`write to captured variable "total" inside par.ForDynamic closure`},
		},
		{
			name: "machine obtained from a call expression is still recognized",
			path: "gapbench/internal/demo",
			files: map[string]string{"bad.go": `package demo

import "gapbench/internal/par"

func Scan(n int) bool {
	changed := false
	par.Default().For(n, 0, func(i int) {
		changed = true
	})
	return changed
}
`},
			want: []string{`write to captured variable "changed" inside par.For closure`},
		},
		{
			name: "other packages' For helpers are not par",
			path: "gapbench/internal/demo",
			files: map[string]string{"ok.go": `package demo

type fake struct{}

func (f fake) Default() fake             { return f }
func (fake) For(n, w int, fn func(int)) { fn(0) }

func Use() {
	par := fake{}
	total := 0
	par.Default().For(1, 1, func(i int) { total += i })
	_ = total
}
`},
			want: nil,
		},
	})
}
