package generate

import "testing"

// unit is float64v's value for the 53-bit draw k.
func unit(k uint64) float64 { return float64(k) / (1 << 53) }

// TestCutsMatchFloatCompare checks the identity the generators rest on: for
// every probability they use, k < cut(t) decides exactly as float64v() < t,
// at the cut's edges, at both ends of the draw range and on 10^6 seeded
// draws; and the RMAT descent's branch-free bits pick the quadrant the
// three float compares pick.
func TestCutsMatchFloatCompare(t *testing.T) {
	const top = 1<<53 - 1
	const draws = 1_000_000
	type probe struct {
		name string
		t    float64
		c    uint64
	}
	var probes []probe
	rmats := []struct {
		name    string
		a, b, c float64
	}{
		{"Kron", 0.57, 0.19, 0.19},
		{"Twitter", 0.52, 0.19, 0.19},
	}
	for _, m := range rmats {
		q := newQuadrants(m.a, m.b, m.c)
		ab := m.a + m.b
		probes = append(probes,
			probe{m.name + " a", m.a, q.a},
			probe{m.name + " a+b", ab, q.ab},
			probe{m.name + " a+b+c", ab + m.c, q.abc})
	}
	for _, p := range []struct {
		name string
		t    float64
	}{{"Road extra", 0.2}, {"Web intra", 0.80}, {"Web front", 0.3}, {"Web entry", 0.5}} {
		probes = append(probes, probe{p.name, p.t, cut(p.t)})
	}

	for _, p := range probes {
		for _, k := range []uint64{p.c - 1, p.c, p.c + 1, 0, top} {
			if k > top {
				continue // c−1 wrapped below 0 or c+1 passed the last draw
			}
			if got, want := k < p.c, unit(k) < p.t; got != want {
				t.Errorf("%s: k=%d: k < cut is %t, float compare %t", p.name, k, got, want)
			}
		}
		fr, ir := newRNG(7), newRNG(7)
		for i := 0; i < draws; i++ {
			want := fr.float64v() < p.t
			if got := ir.chance(p.c); got != want {
				t.Fatalf("%s: draw %d: chance %t, float compare %t", p.name, i, got, want)
			}
		}
	}

	for _, m := range rmats {
		q := newQuadrants(m.a, m.b, m.c)
		check := func(k uint64) {
			p := unit(k)
			var row, col uint64
			switch {
			case p < m.a:
			case p < m.a+m.b:
				col = 1
			case p < m.a+m.b+m.c:
				row = 1
			default:
				row, col = 1, 1
			}
			if gr, gc := q.bits(k); gr != row || gc != col {
				t.Fatalf("%s: k=%d: bits (%d,%d), float compares (%d,%d)", m.name, k, gr, gc, row, col)
			}
		}
		for _, c := range []uint64{q.a, q.ab, q.abc} {
			check(c - 1)
			check(c)
			check(c + 1)
		}
		check(0)
		check(top)
		r := newRNG(11)
		for i := 0; i < draws; i++ {
			check(r.draw53())
		}
	}
}
