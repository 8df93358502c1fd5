package kernel_test

import (
	"math"
	"strings"
	"testing"

	"gapbench/internal/invariant"
	"gapbench/internal/kernel"
	"gapbench/internal/par"
)

// TestPRMassSums checks both sums against a serial count at 1 and 3
// workers, and that PRUnitMass leaves unit mass.
func TestPRMassSums(t *testing.T) {
	ranks := []float64{0.5, 0.25, 0.125, 0.0625, 0.0625}
	invDeg := []float64{1, 0, 0.5, 0, 1}
	for _, w := range []int{1, 3} {
		m := par.NewMachine(w)
		mass, dangling := kernel.PRMass(m, ranks, invDeg, w)
		m.Close()
		if mass != 1 || dangling != 0.3125 {
			t.Errorf("%d workers: mass, dangling = %v, %v, want 1, 0.3125", w, mass, dangling)
		}
	}
	scaled := kernel.PRUnitMass([]float64{2, 6})
	if scaled[0] != 0.25 || scaled[1] != 0.75 {
		t.Errorf("PRUnitMass([2 6]) = %v, want [0.25 0.75]", scaled)
	}
}

// TestPRMassArmedRejectsNaN feeds NaN and infinite scores to an armed PRMass,
// which must panic naming the pr-mass-finite invariant.
func TestPRMassArmedRejectsNaN(t *testing.T) {
	if !invariant.Armed() {
		t.Skip("needs -tags=check")
	}
	m := par.NewMachine(2)
	defer m.Close()
	invDeg := []float64{1, 0, 1, 0}
	for _, bad := range []float64{math.NaN(), math.Inf(1), 0} {
		ranks := []float64{bad, 0, 0, 0}
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, `invariant "pr-mass-finite" violated`) {
					t.Errorf("PRMass on scores %v: panic %q, want the pr-mass-finite invariant", ranks, msg)
				}
			}()
			kernel.PRMass(m, ranks, invDeg, 2)
		}()
	}
}
