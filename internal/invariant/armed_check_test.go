//go:build check

package invariant

import "testing"

// TestArmed guards the build wiring: this file only compiles under the check
// tag, and the tag must have flipped the gate on. Every other armed test skips
// when the gate is off, so without this one a broken wiring would pass the
// armed tier by skipping everything.
func TestArmed(t *testing.T) {
	if !Armed() {
		t.Fatal("built with -tags=check but the invariant gate is off")
	}
}
