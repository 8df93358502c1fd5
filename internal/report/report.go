// Package report renders the paper's tables from benchmark results: Table I
// (graph properties), Tables II/III (framework attributes and algorithm
// choices), Table IV (fastest times with the winning framework), and Table V
// (the speedup heat map against the GAP reference, rendered as percentages
// exactly like the paper). A CSV export mirrors the paper's companion
// spreadsheet of complete timing data.
package report

import (
	"fmt"
	"sort"
	"strings"

	"gapbench/internal/core"
	"gapbench/internal/graph"
	"gapbench/internal/kernel"
)

// table is a minimal column-aligned text table builder.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) addRow(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// TableI renders the graph-property table from computed stats.
func TableI(names []string, stats []graph.Stats) string {
	t := &table{header: []string{"Name", "Vertices", "Edges", "Directed", "Degree", "Degree Distribution", "Approx. Diameter"}}
	for i, name := range names {
		s := stats[i]
		dir := "N"
		if s.Directed {
			dir = "Y"
		}
		t.addRow(name,
			fmt.Sprintf("%d", s.NumNodes),
			fmt.Sprintf("%d", s.NumEdges),
			dir,
			fmt.Sprintf("%.1f", s.AvgDegree),
			string(s.Distribution),
			fmt.Sprintf("%d", s.ApproxDiameter))
	}
	return "TABLE I: GRAPHS USED FOR EVALUATION\n" + t.String()
}

// TableII renders the framework-attribute table.
func TableII(frameworks []kernel.Framework) string {
	keys := []string{"Type", "Internal Graph Data", "Programming Abstraction", "Execution Synchronization", "Intended Users"}
	t := &table{header: append([]string{"Attribute"}, names(frameworks)...)}
	for _, key := range keys {
		row := []string{key}
		for _, f := range frameworks {
			attr := "-"
			if d, ok := f.(kernel.Describer); ok {
				if v := d.Attributes()[key]; v != "" {
					attr = v
				}
			}
			row = append(row, attr)
		}
		t.addRow(row...)
	}
	return "TABLE II: MAIN ATTRIBUTES OF FRAMEWORKS CONSIDERED\n" + t.String()
}

// TableIII renders the per-kernel algorithm-choice table.
func TableIII(frameworks []kernel.Framework) string {
	t := &table{header: append([]string{"Task"}, names(frameworks)...)}
	pick := func(a kernel.Algorithms, k core.Kernel) string {
		switch k {
		case core.BFS:
			return a.BFS
		case core.SSSP:
			return a.SSSP
		case core.CC:
			return a.CC
		case core.PR:
			return a.PR
		case core.BC:
			return a.BC
		default:
			return a.TC
		}
	}
	for _, k := range core.Kernels {
		row := []string{string(k)}
		for _, f := range frameworks {
			alg := "-"
			if d, ok := f.(kernel.Describer); ok {
				alg = pick(d.Algorithms(), k)
			}
			row = append(row, alg)
		}
		t.addRow(row...)
	}
	return "TABLE III: ALGORITHMS USED BY EACH FRAMEWORK\n" + t.String()
}

// tableCell is one computed Table IV or V cell: a time with its winner, or a
// speedup ratio; ok is false where no verified time exists.
type tableCell struct {
	val float64
	who string
	ok  bool
}

// tableRow is one computed row: its leading labels and one cell per graph.
type tableRow struct {
	labels []string
	cells  []tableCell
}

// filled reports whether any cell of the row holds a value.
func (r tableRow) filled() bool {
	for _, c := range r.cells {
		if c.ok {
			return true
		}
	}
	return false
}

// render returns the row's labels followed by its cells, a held value
// through show and an empty cell as missing.
func (r tableRow) render(show func(tableCell) string, missing string) []string {
	out := append([]string(nil), r.labels...)
	for _, c := range r.cells {
		if c.ok {
			out = append(out, show(c))
		} else {
			out = append(out, missing)
		}
	}
	return out
}

// tableIVRows computes Table IV for one mode: a row per kernel, and per graph
// the minimum time over all frameworks with the framework that achieved it.
func tableIVRows(results []core.Result, graphs []string, mode kernel.Mode) []tableRow {
	var rows []tableRow
	for _, k := range core.Kernels {
		row := tableRow{labels: []string{string(k)}}
		for _, gname := range graphs {
			var best tableCell
			for _, r := range results {
				// Non-OK cells (crashed, timed out, failed verification)
				// have no time; they can't win or even place.
				if r.Kernel != k || r.Graph != gname || r.Mode != mode || r.Status != core.OK || !r.Verified || r.Seconds < 0 {
					continue
				}
				if !best.ok || r.Seconds < best.val {
					best = tableCell{val: r.Seconds, who: r.Framework, ok: true}
				}
			}
			row.cells = append(row.cells, best)
		}
		rows = append(rows, row)
	}
	return rows
}

// tableVRows computes Table V for one mode: a row per (framework, kernel)
// with at least one comparable cell, and per graph the ratio of the GAP
// reference time to the framework's time.
func tableVRows(results []core.Result, graphs []string, mode kernel.Mode) []tableRow {
	speedups := core.SpeedupVsReference(results)
	var rows []tableRow
	seen := map[string]bool{}
	for _, r := range results {
		fw := r.Framework
		if fw == core.ReferenceName || seen[fw] {
			continue
		}
		seen[fw] = true
		for _, k := range core.Kernels {
			row := tableRow{labels: []string{fw, string(k)}}
			for _, gname := range graphs {
				ratio, ok := speedups[fw+"|"+string(k)+"|"+gname+"|"+mode.String()]
				row.cells = append(row.cells, tableCell{val: ratio, ok: ok})
			}
			if row.filled() {
				rows = append(rows, row)
			}
		}
	}
	return rows
}

// modes is the order the per-mode tables are printed in.
var modes = []kernel.Mode{kernel.Baseline, kernel.Optimized}

// textTables renders one text table per mode that has a filled row; title
// is a format taking the mode.
func textTables(title string, header []string, rowsFor func(kernel.Mode) []tableRow, show func(tableCell) string, missing string) string {
	var b strings.Builder
	for _, mode := range modes {
		t := &table{header: header}
		any := false
		for _, r := range rowsFor(mode) {
			any = any || r.filled()
			t.addRow(r.render(show, missing)...)
		}
		if any {
			fmt.Fprintf(&b, "%s\n%s\n", fmt.Sprintf(title, mode), t)
		}
	}
	return b.String()
}

// markdownTables renders one GitHub-flavored Markdown table per mode, filled
// rows only, for posting results in issues and PRs the way CONTRIBUTING.md
// asks contributors to; title is a format taking the mode.
func markdownTables(title string, header []string, rowsFor func(kernel.Mode) []tableRow, show func(tableCell) string) string {
	var b strings.Builder
	for _, mode := range modes {
		var lines []string
		for _, r := range rowsFor(mode) {
			if r.filled() {
				lines = append(lines, "| "+strings.Join(r.render(show, "—"), " | ")+" |\n")
			}
		}
		if len(lines) == 0 {
			continue
		}
		fmt.Fprintf(&b, "### %s\n\n", fmt.Sprintf(title, mode))
		b.WriteString("| " + strings.Join(header, " | ") + " |\n")
		b.WriteString("|" + strings.Repeat("---|", len(header)) + "\n")
		b.WriteString(strings.Join(lines, ""))
		b.WriteByte('\n')
	}
	return b.String()
}

func showRatio(c tableCell) string { return fmt.Sprintf("%.2f%%", 100*c.val) }

// TableIV renders the fastest-time table: per kernel x graph x mode, the
// minimum time over all frameworks and which framework achieved it (the
// paper encodes the winner as the cell color; text gets the name).
func TableIV(results []core.Result, graphs []string) string {
	return textTables("TABLE IV (%s): FASTEST TIMES (winner in brackets)", append([]string{"Kernel"}, graphs...),
		func(m kernel.Mode) []tableRow { return tableIVRows(results, graphs, m) },
		func(c tableCell) string { return fmt.Sprintf("%.4fs [%s]", c.val, c.who) }, "—")
}

// TableV renders the speedup heat map: per framework, kernel and graph, the
// ratio of the GAP reference time to the framework's time as a percentage
// (100% = parity, >100% faster than GAP), for each mode present.
func TableV(results []core.Result, graphs []string) string {
	return textTables("TABLE V (%s): SPEEDUP OVER GAP REFERENCE (100%% = parity)", append([]string{"Framework", "Kernel"}, graphs...),
		func(m kernel.Mode) []tableRow { return tableVRows(results, graphs, m) }, showRatio, "-")
}

// MarkdownTableIV renders the fastest-time table as Markdown.
func MarkdownTableIV(results []core.Result, graphs []string) string {
	return markdownTables("Table IV (%s): fastest times", append([]string{"Kernel"}, graphs...),
		func(m kernel.Mode) []tableRow { return tableIVRows(results, graphs, m) },
		func(c tableCell) string { return fmt.Sprintf("%.4fs (**%s**)", c.val, c.who) })
}

// MarkdownTableV renders the speedup heat map as Markdown.
func MarkdownTableV(results []core.Result, graphs []string) string {
	return markdownTables("Table V (%s): speedup over the GAP reference", append([]string{"Framework", "Kernel"}, graphs...),
		func(m kernel.Mode) []tableRow { return tableVRows(results, graphs, m) }, showRatio)
}

// CSV renders all results as comma-separated values, the complete-data
// export the paper links in a footnote.
func CSV(results []core.Result) string {
	rows := append([]core.Result(nil), results...)
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.Mode != b.Mode {
			return a.Mode < b.Mode
		}
		if a.Graph != b.Graph {
			return a.Graph < b.Graph
		}
		if a.Kernel != b.Kernel {
			return a.Kernel < b.Kernel
		}
		return a.Framework < b.Framework
	})
	var b strings.Builder
	// The sync_* columns expose each cell's synchronization structure from
	// the mode's machine (regions launched, inline regions, barrier shares,
	// dynamic chunks, mean region width) — the per-cell observables behind
	// the paper's §V-A launch-overhead analysis. The status column is the
	// fault-model rollup (DESIGN.md §9); non-OK cells leave their timing
	// columns empty rather than exporting -1 or partial-garbage seconds.
	b.WriteString("mode,graph,kernel,framework,status,best_seconds,avg_seconds,stddev_seconds,trials,retries,verified,error," +
		"sync_workers,sync_regions,sync_serial_regions,sync_barriers,sync_chunks,sync_effective_workers\n")
	for _, r := range rows {
		best, avg, sd := "", "", ""
		if r.Status == core.OK && r.Seconds >= 0 {
			best = fmt.Sprintf("%.6f", r.Seconds)
			avg = fmt.Sprintf("%.6f", r.AvgSeconds)
			sd = fmt.Sprintf("%.6f", r.StdDev)
		}
		fmt.Fprintf(&b, "%s,%s,%s,%s,%s,%s,%s,%s,%d,%d,%t,%q,%d,%d,%d,%d,%d,%.2f\n",
			r.Mode, r.Graph, r.Kernel, r.Framework, r.Status, best, avg, sd, r.Trials, r.Retries, r.Verified, r.Err,
			r.Sync.Workers, r.Sync.Regions, r.Sync.SerialRegions, r.Sync.Barriers, r.Sync.Chunks, r.Sync.EffectiveWorkers)
	}
	return b.String()
}

func names(frameworks []kernel.Framework) []string {
	out := make([]string, len(frameworks))
	for i, f := range frameworks {
		out[i] = f.Name()
	}
	return out
}
