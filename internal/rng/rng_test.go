package rng

import (
	"slices"
	"testing"
)

// TestReferenceVectors pins Next to the splitmix64 reference stream.
// Every seed→schedule contract in the repository rests on these values.
func TestReferenceVectors(t *testing.T) {
	for _, tc := range []struct {
		seed uint64
		want []uint64
	}{
		{0, []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f}},
		{1234567, []uint64{0x599ed017fb08fc85, 0x2c73f08458540fa5, 0x883ebce5a3f27c77}},
	} {
		g := New(tc.seed)
		for i, want := range tc.want {
			if got := g.Next(); got != want {
				t.Errorf("seed %d draw %d = %#016x, want %#016x", tc.seed, i, got, want)
			}
		}
	}
	var zero SplitMix64
	if got := zero.Next(); got != 0xe220a8397b1dcdaf {
		t.Errorf("zero value's first draw = %#016x, want seed 0's", got)
	}
}

// TestCoinCertainConsumesNoDraw: a coin that cannot come up otherwise
// (p ≤ 0 or p ≥ 1) decides without touching the stream, so certain
// coins never shift the draws that follow.
func TestCoinCertainConsumesNoDraw(t *testing.T) {
	g, twin := New(42), New(42)
	for _, p := range []float64{-1, 0, 1, 2} {
		if got, want := g.Coin(p), p >= 1; got != want {
			t.Errorf("Coin(%v) = %v, want %v", p, got, want)
		}
	}
	if got, want := g.Next(), twin.Next(); got != want {
		t.Fatalf("certain coins consumed a draw: next %#x, want %#x", got, want)
	}
}

// TestCoinFrequency: a fair coin comes up heads half the time. The
// bound is over six standard deviations at this sample size.
func TestCoinFrequency(t *testing.T) {
	const n = 100000
	g := New(7)
	heads := 0
	for i := 0; i < n; i++ {
		if g.Coin(0.5) {
			heads++
		}
	}
	if heads < n/2-1000 || heads > n/2+1000 {
		t.Errorf("Coin(0.5): %d/%d heads", heads, n)
	}
}

// TestIntnRange: Intn stays in [0, n), reaches both ends for small n,
// and panics for n ≤ 0.
func TestIntnRange(t *testing.T) {
	g := New(9)
	for _, n := range []int{1, 2, 3, 7, 1 << 40} {
		for i := 0; i < 1000; i++ {
			if v := g.Intn(n); v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d", n, v)
			}
		}
	}
	var seen [3]bool
	for i := 0; i < 100; i++ {
		seen[g.Intn(3)] = true
	}
	if seen != [3]bool{true, true, true} {
		t.Errorf("Intn(3) missed a value in 100 draws: %v", seen)
	}
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Intn(%d) did not panic", n)
				}
			}()
			g.Intn(n)
		}()
	}
}

// TestFloat64Range: Float64 stays in [0, 1).
func TestFloat64Range(t *testing.T) {
	g := New(11)
	for i := 0; i < 100000; i++ {
		if f := g.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v", f)
		}
	}
}

// TestPerm: Perm returns a permutation of [0, n), and the same one for
// the same seed.
func TestPerm(t *testing.T) {
	for _, n := range []int{0, 1, 2, 10, 257} {
		g, twin := New(uint64(n)+3), New(uint64(n)+3)
		p := g.Perm(n)
		if !slices.Equal(p, twin.Perm(n)) {
			t.Errorf("Perm(%d) differs between two streams of one seed", n)
		}
		sorted := slices.Sorted(slices.Values(p))
		for i, v := range sorted {
			if v != i {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
		}
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
	}
}
