package loc_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gapbench/internal/loc"
)

func TestCountDir(t *testing.T) {
	dir := t.TempDir()
	src := `// Package x.
package x

/*
block comment
*/
func F() int {
	return 1 // trailing comment counts as code
}
`
	if err := os.WriteFile(filepath.Join(dir, "x.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	// Tests and non-Go files must be ignored.
	os.WriteFile(filepath.Join(dir, "x_test.go"), []byte("package x\nfunc TestX(){}\n"), 0o644)
	os.WriteFile(filepath.Join(dir, "README.md"), []byte("hi\n"), 0o644)

	c, err := loc.CountDir("x", dir)
	if err != nil {
		t.Fatal(err)
	}
	if c.Files != 1 {
		t.Fatalf("files = %d, want 1", c.Files)
	}
	// Code: package x, func F() int {, return 1, }  => 4
	if c.Code != 4 {
		t.Fatalf("code = %d, want 4", c.Code)
	}
	// Comments: line comment + 3 block lines => 4
	if c.Comments != 4 {
		t.Fatalf("comments = %d, want 4", c.Comments)
	}
	if c.Blank != 1 {
		t.Fatalf("blank = %d, want 1", c.Blank)
	}
}

func TestCountDirMissing(t *testing.T) {
	if _, err := loc.CountDir("x", "/definitely/not/here"); err == nil {
		t.Fatal("missing directory accepted")
	}
}

func TestReportSortsByCode(t *testing.T) {
	out := loc.Report([]loc.Count{
		{Name: "big", Code: 100},
		{Name: "small", Code: 10},
	})
	if strings.Index(out, "small") > strings.Index(out, "big") {
		t.Fatalf("report not sorted ascending:\n%s", out)
	}
	if !strings.Contains(out, "Framework") {
		t.Fatal("missing header")
	}
}

// TestOnRealFrameworks sanity-checks the tool against this repository when
// the source tree is available (it is under `go test`).
func TestOnRealFrameworks(t *testing.T) {
	root := "../.."
	if _, err := os.Stat(filepath.Join(root, "internal", "gap")); err != nil {
		t.Skip("source tree not available")
	}
	c, err := loc.CountDir("gap", filepath.Join(root, "internal", "gap"))
	if err != nil {
		t.Fatal(err)
	}
	if c.Code < 100 {
		t.Fatalf("gap package code lines = %d, implausibly small", c.Code)
	}
}
