package aco

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"testing"

	"bioschedsim/internal/check"
	"bioschedsim/internal/xrand"
)

// naiveSearch is searchCum's specification: walk front to back and return
// the first index whose entry exceeds x.
func naiveSearch(cum []float64, x float64) int {
	for j, v := range cum {
		if v > x {
			return j
		}
	}
	return len(cum)
}

// naiveWeighted is weightedCum's specification: one plain loop adding the
// masked Eq. 5 weights in ascending VM order.
func naiveWeighted(ba, eta []float64, cls []int32, tabu []bool, cum []float64) float64 {
	var acc float64
	for j := range cum {
		var w float64
		if !tabu[j] {
			w = ba[j] * eta[cls[j]]
		}
		acc += w
		cum[j] = acc
	}
	return acc
}

// eqBits is bit-identity that also distinguishes ±0, except that any NaN
// matches any NaN: Go does not pin which operand's payload an addition
// propagates, so payload bits are outside the contract.
func eqBits(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// rouletteRow is one weightedCum input: n VMs over k classes.
type rouletteRow struct {
	ba, eta []float64
	cls     []int32
	tabu    []bool
}

// rouletteShapes builds the weight rows the differential table sweeps for
// a fleet of n VMs: plain random weights, long tabu runs (plateaus in cum),
// equal weights (evenly spaced cum), every VM tabu (total 0), and the
// denormal and near-overflow magnitudes.
func rouletteShapes(n int) map[string]rouletteRow {
	const k = 3
	rnd := xrand.New(uint64(n), 7)
	row := func(weight func(j int) float64, tabu func(j int) bool) rouletteRow {
		r := rouletteRow{
			ba:   make([]float64, n),
			eta:  []float64{1, 0.5, 2},
			cls:  make([]int32, n),
			tabu: make([]bool, n),
		}
		for j := 0; j < n; j++ {
			r.ba[j] = weight(j)
			r.cls[j] = int32(rnd.Intn(k))
			r.tabu[j] = tabu(j)
		}
		return r
	}
	none := func(int) bool { return false }
	return map[string]rouletteRow{
		"random":    row(func(int) float64 { return rnd.Float64() }, none),
		"tabu-runs": row(func(int) float64 { return 1 + rnd.Float64() }, func(j int) bool { return j == 0 || (j >= n/3 && j < 2*n/3) || j%7 == 3 }),
		"ties":      row(func(int) float64 { return 1 }, func(j int) bool { return j%5 == 2 }),
		"all-tabu":  row(func(int) float64 { return 1 }, func(int) bool { return true }),
		"denormal":  row(func(int) float64 { return math.SmallestNonzeroFloat64 * float64(1+rnd.Intn(1<<10)) }, none),
		"huge":      row(func(int) float64 { return (0.5 + rnd.Float64()) * 1e307 }, func(j int) bool { return j%4 == 1 }),
	}
}

// searchProbes returns the draws the search is held to on cum: below and at
// zero, every entry exactly and one ulp either side of it, the total and
// beyond, +Inf, and a few uniform draws.
func searchProbes(cum []float64, total float64) []float64 {
	probes := []float64{-1, 0, math.Copysign(0, -1), total, 2 * total, math.Inf(1), math.Inf(-1)}
	for _, v := range cum {
		probes = append(probes, v, math.Nextafter(v, math.Inf(-1)), math.Nextafter(v, math.Inf(1)))
	}
	rnd := xrand.New(uint64(len(cum)), 8)
	for i := 0; i < 8; i++ {
		probes = append(probes, rnd.Float64()*total)
	}
	return probes
}

// TestWeightedCumMatchesNaive differences weightedCum against its naive
// loop across the unroll boundaries (4x unroll, lengths 31/32/33) and a
// paper-scale fleet: the total and every cum entry must match bit for bit.
func TestWeightedCumMatchesNaive(t *testing.T) {
	for _, n := range []int{0, 1, 3, 4, 5, 31, 32, 33, 500} {
		for name, r := range rouletteShapes(n) {
			t.Run(fmt.Sprintf("n=%d/%s", n, name), func(t *testing.T) {
				want := make([]float64, n)
				got := make([]float64, n)
				wantTotal := naiveWeighted(r.ba, r.eta, r.cls, r.tabu, want)
				gotTotal := weightedCum(r.ba, r.eta, r.cls, r.tabu, got)
				if !eqBits(wantTotal, gotTotal) {
					t.Fatalf("weightedCum total = %v, naive %v", gotTotal, wantTotal)
				}
				for j := range want {
					if !eqBits(want[j], got[j]) {
						t.Fatalf("weightedCum cum[%d] = %v, naive %v", j, got[j], want[j])
					}
				}
			})
		}
	}
}

// TestSearchCumMatchesNaive differences searchCum against its naive scan on
// the same shapes: it must return the same slot for every probe, including
// draws exactly equal to a cum entry and x ≥ total.
func TestSearchCumMatchesNaive(t *testing.T) {
	for _, n := range []int{0, 1, 3, 4, 5, 31, 32, 33, 500} {
		for name, r := range rouletteShapes(n) {
			t.Run(fmt.Sprintf("n=%d/%s", n, name), func(t *testing.T) {
				cum := make([]float64, n)
				total := naiveWeighted(r.ba, r.eta, r.cls, r.tabu, cum)
				for _, x := range searchProbes(cum, total) {
					if sj, nj := searchCum(cum, x), naiveSearch(cum, x); sj != nj {
						t.Fatalf("searchCum(x=%v) = %d, naive %d", x, sj, nj)
					}
				}
			})
		}
	}
}

// decodeFloats reinterprets data as little-endian float64s — raw bit
// patterns, so the fuzzer reaches denormals, ±Inf, NaN payloads, and ±0
// without any generator bias.
func decodeFloats(data []byte) []float64 {
	out := make([]float64, len(data)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
	}
	return out
}

// FuzzRoulette drives both roulette helpers with raw float bit patterns.
// weightedCum admits any bit pattern and must match the naive loop bit for
// bit (any NaN matches any NaN). searchCum is specified only on a
// non-decreasing, NaN-free cum and a non-NaN draw, so the fuzz values are
// sanitized to that domain first: NaNs dropped, the rest sorted.
func FuzzRoulette(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("AAAAAAAA"))
	f.Add([]byte("AAAAAAAABBBBBBBBCCCCCCCCDDDDDDDDEEEEEEEEFFFFFFFFGGGGGGGGHHHHHHHHI"))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xf0, 0x7f, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xf8, 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		xs := decodeFloats(data)
		n := len(xs)

		// weightedCum: classes and tabu masks derived from the raw bytes.
		k := 1 + n%5
		eta := make([]float64, k)
		copy(eta, xs)
		cls := make([]int32, n)
		tabu := make([]bool, n)
		for i := 0; i < n; i++ {
			cls[i] = int32(int(data[i]) % k)
			tabu[i] = data[i]&0x80 != 0
		}
		want := make([]float64, n)
		got := make([]float64, n)
		wantTotal := naiveWeighted(xs, eta, cls, tabu, want)
		gotTotal := weightedCum(xs, eta, cls, tabu, got)
		if !eqBits(wantTotal, gotTotal) {
			t.Fatalf("weightedCum total = %v (bits %016x), naive %v (bits %016x)",
				gotTotal, math.Float64bits(gotTotal), wantTotal, math.Float64bits(wantTotal))
		}
		for j := range want {
			if !eqBits(want[j], got[j]) {
				t.Fatalf("weightedCum cum[%d] = %v, naive %v", j, got[j], want[j])
			}
		}

		// searchCum: the non-NaN values, sorted, are a valid cum array and
		// each of them (plus the extremes) a valid draw.
		cum := make([]float64, 0, n)
		for _, x := range xs {
			if !math.IsNaN(x) {
				cum = append(cum, x)
			}
		}
		sort.Float64s(cum)
		probes := append([]float64{math.Inf(-1), -1, 0, 1, math.Inf(1)}, cum...)
		for _, x := range probes {
			if sj, nj := searchCum(cum, x), naiveSearch(cum, x); sj != nj {
				t.Fatalf("searchCum(n=%d, x=%v) = %d, naive %d (cum %v)", len(cum), x, sj, nj, cum)
			}
		}
	})
}

// TestOffByOneSearchChangesPlacement plants the classic upper-bound-search
// bug — a roulette slot one off — and requires it to move the ACO placement
// vector on a small heterogeneous scenario. It proves the roulette search is
// placement-visible, so the differential tests above guard real behaviour.
func TestOffByOneSearchChangesPlacement(t *testing.T) {
	sc := check.Scenario{Class: check.ClassHeterogeneous, VMs: 6, Cloudlets: 24, DCs: 1, Seed: 5}
	place := func() []int {
		b, err := sc.Build()
		if err != nil {
			t.Fatal(err)
		}
		as, err := Default().Schedule(b.Ctx)
		if err != nil {
			t.Fatal(err)
		}
		pos := make([]int, len(as))
		for i, a := range as {
			pos[i] = a.VM.ID
		}
		return pos
	}
	good := place()

	rouletteSearch = func(cum []float64, x float64) int {
		j := searchCum(cum, x)
		if j+1 < len(cum) {
			return j + 1
		}
		if j > 0 {
			return j - 1
		}
		return j
	}
	defer func() { rouletteSearch = searchCum }()
	planted := place()

	for i := range good {
		if good[i] != planted[i] {
			return
		}
	}
	t.Fatalf("off-by-one roulette search left the placement vector unchanged: %v", good)
}
