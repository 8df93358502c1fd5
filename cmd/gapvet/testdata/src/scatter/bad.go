// Package scatter is a gapvet test fixture (never built) covering the
// counting-sort ingest idiom: a stable parallel scatter where each worker
// bumps cursors in its *own* offset slice and writes output cells at the
// positions those cursors yield. Every write goes through an index
// expression on a captured slice — the sanctioned pattern — so the clean
// function below must produce no par-closure-race findings. BrokenScatter
// then makes the one mistake the rule exists to catch: hoisting a cursor
// into a captured scalar shared by all workers.
package scatter

import "gapbench/internal/par"

// Scatter is the clean per-worker-offset pattern. offsets[w][k] is worker
// w's next write position for key k; out[pos] receives the item. Both
// writes are through index expressions (`off[k] = ...`, `out[pos] = ...`)
// on captured slices at worker-owned positions, which the race rule must
// leave alone.
func Scatter(exec *par.Machine, keys []int, offsets [][]int64, out []int64) {
	exec.ForWorker(len(keys), len(offsets), func(w, lo, hi int) {
		off := offsets[w]
		for i := lo; i < hi; i++ {
			k := keys[i]
			pos := off[k]
			off[k] = pos + 1
			out[pos] = int64(i)
		}
	})
}

// BrokenScatter shares one cursor between all workers with a plain
// read-modify-write: the exact race the per-worker offset slices exist to
// avoid, and the one finding this fixture adds to the golden output.
func BrokenScatter(exec *par.Machine, keys []int, out []int64) {
	var cursor int64
	exec.ForWorker(len(keys), 0, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			out[cursor] = int64(keys[i])
			cursor++
		}
	})
}
