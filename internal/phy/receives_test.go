package phy

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// receivesParams are the sigmoid shapes the bracket table must stay exact
// under: the default, a near-step sigmoid whose span hits the cell cap, a
// shallow one, a midpoint below the sensitivity floor (every cell near 1),
// and a width so narrow that the table keeps the exact path only.
func receivesParams() map[string]Params {
	narrow := DefaultParams()
	narrow.PRRWidthDB = 0.1
	wide := DefaultParams()
	wide.PRRWidthDB = 10
	below := DefaultParams()
	below.PRRMidpointDBm = below.SensitivityDBm - 5
	tiny := DefaultParams()
	tiny.PRRWidthDB = 1e-4
	return map[string]Params{
		"default":        DefaultParams(),
		"width-0.1":      narrow,
		"width-10":       wide,
		"mid-below-sens": below,
		"width-1e-4":     tiny,
	}
}

func receivesTable(t *testing.T, p Params) *LinkTable {
	t.Helper()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return newLogDistanceTable(p, [][]float64{{math.Inf(-1)}})
}

// checkReceives asserts the decision's one contract on (faded, u) and on
// u's neighbours one ulp either side, for u in [0, 1) — the range of
// rand.Float64.
func checkReceives(t *testing.T, table *LinkTable, faded, u float64) {
	t.Helper()
	for _, v := range []float64{math.Nextafter(u, -1), u, math.Nextafter(u, 2)} {
		if v < 0 || v >= 1 {
			continue
		}
		want := v < table.prrFromRSSI(faded)
		if got := table.receives(faded, v); got != want {
			t.Fatalf("receives(%v, %v) = %v, want %v (p = %v)", faded, v, got, want, table.prrFromRSSI(faded))
		}
	}
}

// checkAllDraws checks faded against the draws that sit on every edge the
// decision has: its own computed p, its cell's bracket bounds, 0 and the
// largest Float64.
func checkAllDraws(t *testing.T, table *LinkTable, faded float64) {
	t.Helper()
	us := []float64{0, math.Nextafter(1, 0), table.prrFromRSSI(faded)}
	if r := (faded - table.sensitivityDBm) * table.bracketInv; r >= 0 && r < float64(len(table.brackets)) {
		b := table.brackets[int(r)]
		us = append(us, b.lo, b.hi)
	}
	for _, u := range us {
		checkReceives(t, table, faded, u)
	}
}

func TestReceivesMatchesSigmoidExactly(t *testing.T) {
	for name, params := range receivesParams() {
		t.Run(name, func(t *testing.T) {
			table := receivesTable(t, params)
			cells := len(table.brackets)
			if size := cells * int(unsafe.Sizeof(prrBracket{})); size > 64<<10 {
				t.Fatalf("brackets take %d bytes, more than 64 KiB", size)
			}
			if name == "width-1e-4" && cells != 0 {
				t.Fatalf("width 1e-4 built %d cells; want the exact path only", cells)
			}
			s := table.sensitivityDBm
			top := table.prrMidpointDBm + prrTopZ*table.prrWidthDB

			// Every grid point and its ±1..4-ulp neighbours: the cell
			// boundaries where index rounding matters.
			for j := 0; cells > 0 && j <= cells+1; j++ {
				x := s + float64(j)/table.bracketInv
				lo, hi := x, x
				checkAllDraws(t, table, x)
				for k := 0; k < 4; k++ {
					lo, hi = math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))
					checkAllDraws(t, table, lo)
					checkAllDraws(t, table, hi)
				}
			}
			// The sensitivity floor from both sides, and values past the
			// grid's top.
			for _, x := range []float64{s, math.Nextafter(s, math.Inf(-1)), top, top + 1, top + 100, 1e3} {
				checkAllDraws(t, table, x)
			}

			// Random pairs: a uniform draw over the whole sigmoid, and a
			// draw placed within a few 1e-9 of p, where the brackets bite.
			rng := rand.New(rand.NewSource(1))
			span := top - s + 10*table.prrWidthDB
			for i := 0; i < 1_000_000; i++ {
				faded := s - 5*table.prrWidthDB + rng.Float64()*span
				u := rng.Float64()
				if i%2 == 1 {
					u = table.prrFromRSSI(faded) + (rng.Float64()-0.5)*4*prrBracketMargin
				}
				if u < 0 || u >= 1 {
					continue
				}
				if got, want := table.receives(faded, u), u < table.prrFromRSSI(faded); got != want {
					t.Fatalf("receives(%v, %v) = %v, want %v", faded, u, got, want)
				}
			}
		})
	}
}
