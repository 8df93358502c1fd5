package main

import (
	"strings"
	"testing"
)

// TestTableFlag: -table takes I, II, III, IV, V or all in any case, and
// anything else is an error naming the valid values before any work is done
// (it used to exit 0 having produced nothing).
func TestTableFlag(t *testing.T) {
	runTable := func(sel string) error {
		return run(sel, 6, 1, "Kron", "BFS", "GAP", "baseline", "", "", "", "", true, true, 0, "", false)
	}
	for _, bad := range []string{"VI", "", "iv,v", "4", "table"} {
		err := runTable(bad)
		if err == nil {
			t.Fatalf("-table %q: accepted", bad)
		}
		if !strings.Contains(err.Error(), "I, II, III, IV, V, all") {
			t.Fatalf("-table %q: error %q does not list the valid values", bad, err)
		}
	}
	// Static tables run nothing, so these exercise validation alone.
	for _, good := range []string{"ii", "III"} {
		if err := runTable(good); err != nil {
			t.Fatalf("-table %q: %v", good, err)
		}
	}
}
