package lowerbound

import (
	"testing"

	"repro/internal/agtv"
	"repro/internal/core"
	"repro/internal/ratrace"
	"repro/internal/shm"
)

// delta returns δ(k+1) = f(k) − f(k+1) for k ≥ 1, as defined in the paper.
func delta(f []int, k int) int { return f[k] - f[k+1] }

// claim55 evaluates the closed form of Claim 5.5(a):
//
//	f(k) = n·(s+1)/2^s − s·(k − n + n/2^s)  for k ∈ I(s),
//
// where I(s) = {n − n/2^s, ..., n − n/2^(s+1) − 1}. n must be a power of
// two and k < n−1. It returns the closed-form value for cross-checking
// against the recurrence, or -1 if k is out of range.
func claim55(n, k int) int {
	// Find s with n − n/2^s ≤ k ≤ n − n/2^(s+1) − 1.
	s := 0
	for {
		lo := n - n/(1<<uint(s))
		hi := n - n/(1<<uint(s+1)) - 1
		if k >= lo && k <= hi {
			break
		}
		s++
		if 1<<uint(s+1) > 2*n {
			return -1 // k out of range
		}
	}
	return n*(s+1)/(1<<uint(s)) - s*(k-n+n/(1<<uint(s)))
}

// TestRecurrenceMatchesClaim55 cross-checks the f recurrence against the
// closed form of Claim 5.5 for powers of two.
func TestRecurrenceMatchesClaim55(t *testing.T) {
	for _, n := range []int{8, 16, 64, 256, 1024} {
		f := F(n, n-2)
		for k := 0; k < n-2; k++ {
			want := claim55(n, k)
			if want < 0 {
				continue
			}
			if f[k] != want {
				t.Fatalf("n=%d k=%d: recurrence %d, closed form %d", n, k, f[k], want)
			}
		}
	}
}

// TestSpaceBoundValue pins f(n−4) = 4(log n − 1).
func TestSpaceBoundValue(t *testing.T) {
	for _, n := range []int{16, 64, 256, 1024} {
		f := F(n, n-4)
		groups, regs := SpaceBound(n)
		if f[n-4] != groups {
			t.Errorf("n=%d: f(n-4) = %d, want %d", n, f[n-4], groups)
		}
		logn := 0
		for p := 1; p < n; p *= 2 {
			logn++
		}
		if regs != logn-1 {
			t.Errorf("n=%d: register bound %d, want %d", n, regs, logn-1)
		}
	}
}

// TestDeltaNonNegative: f is non-decreasing in quality — δ(k+1) ≥ 0, so
// the group count never grows.
func TestDeltaNonNegative(t *testing.T) {
	f := F(64, 60)
	for k := 1; k < 60; k++ {
		if delta(f, k) < 0 {
			t.Fatalf("δ(%d) = %d < 0", k+1, delta(f, k))
		}
	}
}

// TestCoveringAgainstAlgorithms runs the executable covering adversary
// against three different leader elections and checks the Theorem 5.1
// prediction: at least log₂ n − 1 registers end up covered, with no
// register covered by more than 4 surviving representatives and no
// invariant violations.
func TestCoveringAgainstAlgorithms(t *testing.T) {
	algos := map[string]func(n int) func(s shm.Space) func(shm.Handle){
		"logstar": func(n int) func(s shm.Space) func(shm.Handle) {
			return func(s shm.Space) func(shm.Handle) {
				le := core.NewLogStar(s, n)
				return func(h shm.Handle) { le.Elect(h) }
			}
		},
		"agtv": func(n int) func(s shm.Space) func(shm.Handle) {
			return func(s shm.Space) func(shm.Handle) {
				le := agtv.New(s, n)
				return func(h shm.Handle) { le.Elect(h) }
			}
		},
		"ratrace-se": func(n int) func(s shm.Space) func(shm.Handle) {
			return func(s shm.Space) func(shm.Handle) {
				le := ratrace.NewSpaceEfficient(s, n)
				return func(h shm.Handle) { le.Elect(h) }
			}
		},
	}
	for name, mk := range algos {
		for _, n := range []int{16, 32} {
			res := RunCovering(n, 42, mk(n))
			if len(res.Violations) > 0 {
				t.Errorf("%s n=%d: violations: %v", name, n, res.Violations)
			}
			_, wantRegs := SpaceBound(n)
			if res.CoveredRegisters < wantRegs {
				t.Errorf("%s n=%d: %d covered registers, want ≥ %d",
					name, n, res.CoveredRegisters, wantRegs)
			}
			if res.MaxCoverPerRegister > 4 {
				t.Errorf("%s n=%d: a register is covered by %d > 4 representatives",
					name, n, res.MaxCoverPerRegister)
			}
			if res.Groups < 4*(wantRegs) {
				t.Errorf("%s n=%d: %d groups survive, want ≥ %d",
					name, n, res.Groups, 4*wantRegs)
			}
		}
	}
}

// TestCoveringDeterminism: fixed seed ⇒ identical outcome.
func TestCoveringDeterminism(t *testing.T) {
	mk := func(s shm.Space) func(shm.Handle) {
		le := core.NewLogStar(s, 16)
		return func(h shm.Handle) { le.Elect(h) }
	}
	a := RunCovering(16, 7, mk)
	b := RunCovering(16, 7, mk)
	if a.Groups != b.Groups || a.CoveredRegisters != b.CoveredRegisters {
		t.Fatalf("covering not deterministic: %+v vs %+v", a, b)
	}
}

// TestTwoProcessTimeBound checks Theorem 6.1's inequality empirically for
// small t: the worst-schedule probability of needing ≥ t steps is at least
// 4^{-t}.
func TestTwoProcessTimeBound(t *testing.T) {
	for _, tt := range []int{2, 3, 4} {
		p := TwoProcessTimeBound(tt, 120, 1)
		if p.MaxProb < p.Bound {
			t.Errorf("t=%d: max prob %.4f below bound %.4f", tt, p.MaxProb, p.Bound)
		}
		wantSched := binom(2*tt, tt)
		if p.Schedules != wantSched {
			t.Errorf("t=%d: enumerated %d schedules, want %d", tt, p.Schedules, wantSched)
		}
	}
}

func binom(n, k int) int {
	r := 1
	for i := 0; i < k; i++ {
		r = r * (n - i) / (i + 1)
	}
	return r
}

// TestMonotoneProb: the tail probability cannot increase with t.
func TestMonotoneProb(t *testing.T) {
	p2 := TwoProcessTimeBound(2, 200, 3)
	p5 := TwoProcessTimeBound(5, 200, 3)
	if p5.MaxProb > p2.MaxProb+0.05 {
		t.Errorf("P[≥5 steps]=%.3f exceeds P[≥2 steps]=%.3f", p5.MaxProb, p2.MaxProb)
	}
}
