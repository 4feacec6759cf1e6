// Package lowerbound implements the paper's two lower bounds as executable
// experiments:
//
//   - Section 5 (Theorem 5.1): the Ω(log n) space bound, via the f/δ
//     recurrence of Claim 5.5 (this file) and an executable covering
//     adversary following the Lemma 5.4 induction (covering.go);
//   - Section 6 (Theorem 6.1): the two-process time bound
//     P[some process needs ≥ t steps] ≥ 1/4^t under some oblivious
//     schedule, via schedule enumeration (yao.go).
package lowerbound

// F computes the recurrence from Section 5.2:
//
//	f(0)   = n
//	f(k+1) = f(k) − ⌊f(k)/(n−k)⌋ + 1,
//
// returning f(0..kMax). f(k) lower-bounds the number of surviving process
// groups m_k after round k of the covering construction.
func F(n, kMax int) []int {
	if kMax > n-1 {
		kMax = n - 1
	}
	out := make([]int, kMax+1)
	out[0] = n
	for k := 0; k < kMax; k++ {
		out[k+1] = out[k] - out[k]/(n-k) + 1
	}
	return out
}

// SpaceBound returns the Theorem 5.1 consequence for n a power of two:
// f(n−4) = 4(log₂ n − 1) groups survive, every register is covered by at
// most 4 of them, so at least log₂ n − 1 registers exist.
func SpaceBound(n int) (groups, registers int) {
	logn := 0
	for p := 1; p < n; p *= 2 {
		logn++
	}
	return 4 * (logn - 1), logn - 1
}
