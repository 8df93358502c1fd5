//go:build check

package invariant

// Building with -tags=check arms every invariant assertion; see invariant.go.
func init() { armed = true }
