// Package loc measures implementation size per framework — a first cut at
// the "ever-challenging programmability problem" the paper's §VI names as
// future work ("we did not analyze the complexity of the algorithms from
// one framework to the next"). Lines of code is the bluntest of
// programmability measures, but it is the one §V-E itself reaches for
// ("LAGraph implements the batch Brandes algorithm, in a mere 97 lines").
package loc

import (
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// Count is the code-size summary of one directory.
type Count struct {
	Name     string
	Files    int
	Code     int // non-blank, non-comment lines
	Comments int
	Blank    int
}

// CountDir tallies the Go source files (excluding _test.go) directly inside
// dir.
func CountDir(name, dir string) (Count, error) {
	c := Count{Name: name}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return c, err
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return c, err
		}
		c.Files++
		tallyFile(string(data), &c)
	}
	return c, nil
}

// tallyFile classifies each line of one file. Block comments are tracked
// across lines; a line containing both code and a comment counts as code.
func tallyFile(src string, c *Count) {
	inBlock := false
	for _, line := range strings.Split(src, "\n") {
		trimmed := strings.TrimSpace(line)
		switch {
		case inBlock:
			c.Comments++
			if strings.Contains(trimmed, "*/") {
				inBlock = false
			}
		case trimmed == "":
			c.Blank++
		case strings.HasPrefix(trimmed, "//"):
			c.Comments++
		case strings.HasPrefix(trimmed, "/*"):
			c.Comments++
			if !strings.Contains(trimmed[2:], "*/") {
				inBlock = true
			}
		default:
			c.Code++
		}
	}
	// The final split element after a trailing newline is empty; correct
	// the off-by-one blank.
	if strings.HasSuffix(src, "\n") && c.Blank > 0 {
		c.Blank--
	}
}

// Report renders counts as an aligned table sorted by code size.
func Report(counts []Count) string {
	sorted := append([]Count(nil), counts...)
	slices.SortFunc(sorted, func(a, b Count) int { return cmp.Compare(a.Code, b.Code) })
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %6s %8s %10s %7s\n", "Framework", "Files", "Code", "Comments", "Blank")
	for _, c := range sorted {
		fmt.Fprintf(&b, "%-14s %6d %8d %10d %7d\n", c.Name, c.Files, c.Code, c.Comments, c.Blank)
	}
	return b.String()
}
