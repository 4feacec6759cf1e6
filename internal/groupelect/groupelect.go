// Package groupelect implements the Group Election primitive of Section 2.1
// and its three concrete instantiations used by the paper:
//
//   - Fig1: the location-oblivious-adversary implementation of Figure 1,
//     with performance parameter f(k) ≤ 2·log k + 6 (Lemma 2.2);
//   - Sifter: the one-register sifting step of Alistarh and Aspnes [2],
//     efficient against the R/W-oblivious adversary, f(k) ≤ πk + 1/π;
//   - Dummy: a zero-register object in which every participant is elected,
//     used to truncate chains so their space stays O(n) (remark after
//     Lemma 2.2).
//
// A Group Election object provides elect() returning true ("elected") or
// false. If some processes call elect, at least one is elected. Its
// quality is the performance parameter: the smallest f with E[#elected] ≤
// f(k) when k processes participate.
package groupelect

import (
	"math"

	"repro/internal/shm"
)

// GroupElector is the Group Election interface of Section 2.1.
type GroupElector interface {
	// Elect returns true iff the calling process is elected. Each
	// process calls Elect at most once per object.
	Elect(h shm.Handle) bool
}

// Fig1 is the paper's Figure 1 group election. Participants pass a flag
// doorway, write a 1 into a geometrically distributed slot x of the array
// R[1..l+1] (l = ⌈log₂ n⌉), and are elected iff R[x+1] is still 0.
//
// Against the location-oblivious adversary — which cannot see which slot a
// pending write targets — Lemma 2.2 bounds the expected number of elected
// processes by 2·log₂ k + 6. Each elect() takes at most 4 steps, and the
// object occupies l + 2 = O(log n) registers.
//
// Against the stronger R/W-oblivious adversary the object offers no such
// bound: sim.NewAscendingLocation drives it to f(k) = k.
type Fig1 struct {
	l    int
	flag shm.Register
	r    []shm.Register // r[i] backs the paper's R[i+1], i.e. R[1..l+1]
}

// NewFig1 allocates a Figure 1 group election sized for n processes.
func NewFig1(s shm.Space, n int) *Fig1 {
	l := ceilLog2(n)
	if l < 1 {
		l = 1
	}
	return &Fig1{
		l:    l,
		flag: s.NewRegister(0),
		r:    shm.NewRegisterArray(s, l+1, 0),
	}
}

// ArrayRegisterIDs returns the register ids of the R array. This is static
// layout information (the algorithm is public); the R/W-oblivious attack
// adversary uses it to order same-register ties without ever observing
// pending operation types.
func (g *Fig1) ArrayRegisterIDs() []int {
	ids := make([]int, len(g.r))
	for i, r := range g.r {
		ids[i] = r.RegisterID()
	}
	return ids
}

// ceilLog2 returns ⌈log₂ n⌉ for n ≥ 1.
func ceilLog2(n int) int {
	l, p := 0, 1
	for p < n {
		p *= 2
		l++
	}
	return l
}

// Elect implements GroupElector, following Figure 1 line by line.
func (g *Fig1) Elect(h shm.Handle) bool {
	if h.Read(g.flag) == 1 { // line 1
		return false
	}
	h.Write(g.flag, 1) // line 2
	// Line 3: choose x in {1..l} with Pr(x=i) = 2^-i and the remaining
	// mass 2^-(l-1) on x = l. Flipping fair coins until the first head
	// (capped at l) realizes exactly this distribution.
	x := 1
	for x < g.l && !h.Coin(0.5) {
		x++
	}
	h.Write(g.r[x-1], 1)       // line 4: write R[x]
	return h.Read(g.r[x]) == 0 // lines 5-6: elected iff R[x+1] = 0
}

// Sifter is the sifting group election at the heart of the AA-algorithm
// [2]: each participant writes the shared register with probability pi and
// otherwise reads it; it is elected iff it wrote, or read before any write
// arrived. One register, one step.
//
// Against the R/W-oblivious adversary — which cannot see whether a pending
// operation is the read or the write — the expected number elected is at
// most πk + 1/π (the writers plus a geometric number of early readers);
// π = 1/√k balances this at ≈ 2√k. Against the location-oblivious
// adversary the read/write types of pending steps are visible and
// sim.NewReadersFirst drives it to f(k) = k.
type Sifter struct {
	pi  float64
	reg shm.Register
}

// NewSifter allocates a sifter with write probability pi, clamped to
// (0, 1].
func NewSifter(s shm.Space, pi float64) *Sifter {
	if pi <= 0 {
		pi = math.SmallestNonzeroFloat64
	}
	if pi > 1 {
		pi = 1
	}
	return &Sifter{pi: pi, reg: s.NewRegister(0)}
}

// SifterPi returns the balanced write probability 1/√k for expected
// contention k.
func SifterPi(k int) float64 {
	if k < 1 {
		k = 1
	}
	return 1 / math.Sqrt(float64(k))
}

// Elect implements GroupElector.
func (g *Sifter) Elect(h shm.Handle) bool {
	if h.Coin(g.pi) {
		h.Write(g.reg, 1)
		return true
	}
	return h.Read(g.reg) == 0
}

// Dummy is the trivial group election: everyone is elected, no registers,
// no steps. The paper replaces all but the first O(log n) group elections
// of a chain with dummies to bound the space by O(n); correctness is
// preserved because the chain's splitters alone guarantee progress.
type Dummy struct{}

// NewDummy returns the zero-register all-elected group election.
func NewDummy() Dummy { return Dummy{} }

// Elect implements GroupElector.
func (Dummy) Elect(shm.Handle) bool { return true }
