// Package core implements the paper's primary contribution: leader
// election from group election (Section 2.1), instantiated three ways:
//
//   - NewLogStar — Theorem 2.3: expected O(log* k) steps against the
//     location-oblivious adversary, O(n) registers, using the Figure 1
//     group election;
//   - NewSifting — Section 2.3 (first part): expected O(log log n) steps
//     against the R/W-oblivious adversary, O(n) registers, using sifters;
//   - NewAdaptiveSifting — Theorem 2.4: the adaptive version, expected
//     O(log log k) steps against the R/W-oblivious adversary, built from a
//     cascade of ⌈log log log n⌉ doubly-exponentially sized chains.
//
// # The chain construction (Section 2.1)
//
// A chain is a sequence of levels i = 1..n, each holding a group election
// GE_i, a deterministic splitter SP_i and a two-process leader election
// LE_i. A process participates in the group elections in order. Losing a
// group election, or receiving Left from a splitter, loses the overall
// election. Receiving Right moves the process to the next level. Winning
// SP_i starts the climb: the process must win LE_i (as the splitter winner
// of level i) and then LE_{i-1}, ..., LE_1 (each time as the descendant
// coming from above); winning LE_1 wins the overall election.
//
// At most one process wins each splitter and each LE_j is shared by
// exactly two designated roles (the SP_j winner and the LE_{j+1} winner),
// so at most one process wins overall; and because at least one process is
// elected by each group election and at least one splitter caller receives
// a value other than Right — wait, other than Left — progress is
// guaranteed: the level population decreases by at least one per level, so
// n levels always suffice.
//
// The expected number of levels a process visits is the hitting time
// Δ_{f-1}(k) of the group election's performance parameter f (Lemma 2.1):
// log* k for f(k) = 2 log k + 6, log log k for f(k) = O(√k).
package core

import (
	"math"

	"repro/internal/groupelect"
	"repro/internal/shm"
	"repro/internal/splitter"
	"repro/internal/twoproc"
)

// Outcome is the result of a capped chain traversal.
type Outcome uint8

// Capped-traversal outcomes.
const (
	// Lost: the process lost a group election, received Left from a
	// splitter, or lost a two-process election while climbing.
	Lost Outcome = iota + 1
	// Won: the process won LE_1 and thus the chain.
	Won
	// Exhausted: the process moved Right past the level cap without
	// winning a splitter; in the Theorem 2.4 cascade it proceeds to the
	// next, larger chain.
	Exhausted
)

// ChainLE is the Section 2.1 leader election from group elections.
type ChainLE struct {
	ges       []groupelect.GroupElector
	sps       []splitter.Splitter
	les       []twoproc.LE
	arrayRegs map[int]bool

	// LevelHook, if set before any Elect call, is invoked as each
	// process enters a level (0-based). It feeds the Lemma 2.1
	// experiments that compare measured level populations N_i against
	// the Δ_{f−1} hitting-time prediction. The hook runs on the calling
	// process's goroutine; on the simulator backend calls are serialized
	// by the step-token protocol.
	LevelHook func(pid, level int)
}

// NewChain builds a chain with the given number of levels, obtaining each
// level's group election from ge (which may allocate registers on s).
func NewChain(s shm.Space, levels int, ge func(level int) groupelect.GroupElector) *ChainLE {
	if levels < 1 {
		levels = 1
	}
	c := &ChainLE{
		ges:       make([]groupelect.GroupElector, levels),
		sps:       make([]splitter.Splitter, levels),
		les:       make([]twoproc.LE, levels),
		arrayRegs: make(map[int]bool),
	}
	for i := 0; i < levels; i++ {
		g := ge(i)
		c.ges[i] = g
		if f, ok := g.(*groupelect.Fig1); ok {
			for _, id := range f.ArrayRegisterIDs() {
				c.arrayRegs[id] = true
			}
		}
		c.sps[i] = splitter.Make(s)
		c.les[i] = twoproc.Make(s)
	}
	return c
}

// Levels returns the number of chain levels.
func (c *ChainLE) Levels() int { return len(c.ges) }

// IsArrayRegister reports whether register id reg is a Figure 1 R-array
// slot of this chain — the static layout knowledge the ascending-location
// attack adversary (sim.NewAscendingLocation) is entitled to.
func (c *ChainLE) IsArrayRegister(reg int) bool { return c.arrayRegs[reg] }

// Elect runs the election and returns true iff the caller wins. At most
// one caller wins; if no process crashes, exactly one call returns true.
func (c *ChainLE) Elect(h shm.Handle) bool {
	return c.ElectCapped(h, len(c.ges)) == Won
}

// ElectCapped runs the chain for at most levelCap levels (clamped to the
// chain length) and reports the outcome. With levelCap equal to the chain
// length, Exhausted is unreachable as long as at most `levels` processes
// participate: each level eliminates at least one process, and a process
// alone at a level always wins its splitter.
func (c *ChainLE) ElectCapped(h shm.Handle, levelCap int) Outcome {
	if levelCap > len(c.ges) {
		levelCap = len(c.ges)
	}
	for i := 0; i < levelCap; i++ {
		if c.LevelHook != nil {
			c.LevelHook(h.ID(), i)
		}
		if !c.ges[i].Elect(h) {
			return Lost
		}
		switch c.sps[i].Split(h) {
		case splitter.Left:
			return Lost
		case splitter.Stop:
			return c.climb(h, i)
		case splitter.Right:
			// next level
		}
	}
	return Exhausted
}

// climb plays LE_i (as the level-i splitter winner, slot 0), then
// LE_{i-1}..LE_1 (as the process descending from above, slot 1).
func (c *ChainLE) climb(h shm.Handle, i int) Outcome {
	if !c.les[i].Elect(h, 0) {
		return Lost
	}
	for j := i - 1; j >= 0; j-- {
		if !c.les[j].Elect(h, 1) {
			return Lost
		}
	}
	return Won
}

// realFig1Levels is the number of non-dummy group elections a log* chain
// carries. With probability 1 − 1/n only the first O(log n) levels are
// ever populated (remark after Lemma 2.2), so the tail uses dummies and
// total space stays O(n): 2·⌈log n⌉ Fig1 objects of ⌈log n⌉+2 registers
// each is O(log² n), plus 4 registers per level for splitter and LE.
func realFig1Levels(n, levels int) int {
	m := 2*ceilLog2(n) + 2
	if m > levels {
		m = levels
	}
	return m
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

// NewLogStar builds the Theorem 2.3 leader election for up to n processes:
// a chain of n levels whose first 2⌈log n⌉+2 group elections are Figure 1
// objects and the rest dummies. Expected step complexity against the
// location-oblivious adversary: O(log* k); registers: O(n).
func NewLogStar(s shm.Space, n int) *ChainLE {
	if n < 1 {
		n = 1
	}
	m := realFig1Levels(n, n)
	return NewChain(s, n, func(level int) groupelect.GroupElector {
		if level < m {
			return groupelect.NewFig1(s, n)
		}
		return groupelect.NewDummy()
	})
}

// SifterSchedule returns the per-level write probabilities for a sifting
// chain sized for contention n: π_i = 1/√k_i with k_1 = n and
// k_{i+1} = 3√k_i (an upper bound on the sifter's performance parameter),
// stopping once the expected population is O(1). Its length is
// Θ(log log n).
func SifterSchedule(n int) []float64 {
	if n < 1 {
		n = 1
	}
	var pis []float64
	k := float64(n)
	// The recurrence k → 3√k has its fixpoint at 9; stopping at 16 keeps
	// each level's shrink factor ≥ 4/3 so the loop runs Θ(log log n)
	// times instead of crawling toward the fixpoint.
	for k > 16 {
		pis = append(pis, groupelect.SifterPi(int(k)))
		next := 3 * math.Sqrt(k)
		if next >= k { // guard against non-decreasing populations
			break
		}
		k = next
	}
	// A last balanced round for the O(1) remainder.
	pis = append(pis, 0.5)
	return pis
}

// NewSifting builds the Section 2.3 (non-adaptive) leader election for up
// to n processes: a chain of n levels whose first Θ(log log n) group
// elections are sifters with the balanced probability schedule and the
// rest dummies. Expected step complexity against the R/W-oblivious
// adversary: O(log log n); registers: O(n).
func NewSifting(s shm.Space, n int) *ChainLE {
	if n < 1 {
		n = 1
	}
	pis := SifterSchedule(n)
	return NewChain(s, n, func(level int) groupelect.GroupElector {
		if level < len(pis) {
			return groupelect.NewSifter(s, pis[level])
		}
		return groupelect.NewDummy()
	})
}

// AdaptiveLE is the Theorem 2.4 leader election: a cascade of sifting
// chains LE_0, LE_1, ... of doubly-exponentially increasing sizes
// n_i = 2^(2^(2^i)) (capped at n). A process participates in the first
// Θ(log log n_i) = Θ(2^i) levels of chain i; if it neither loses nor wins
// a splitter there, it proceeds to chain i+1. The winner of chain i
// descends the finals ladder finals[i], finals[i-1], ..., finals[0]; the
// finals[0] winner wins overall. After O(log log k) steps a process is in
// a chain of the "right" size, giving expected O(log log k) steps against
// the R/W-oblivious adversary with Θ(n) registers.
type AdaptiveLE struct {
	subs   []*ChainLE
	caps   []int
	finals []twoproc.LE
}

// NewAdaptiveSifting builds the Theorem 2.4 leader election for up to n
// processes.
func NewAdaptiveSifting(s shm.Space, n int) *AdaptiveLE {
	if n < 1 {
		n = 1
	}
	var sizes []int
	for i := 0; ; i++ {
		ni := towerSize(i)
		if ni >= n || ni <= 0 { // ni <= 0 signals overflow
			sizes = append(sizes, n)
			break
		}
		sizes = append(sizes, ni)
	}
	a := &AdaptiveLE{
		subs:   make([]*ChainLE, len(sizes)),
		caps:   make([]int, len(sizes)),
		finals: make([]twoproc.LE, len(sizes)),
	}
	for i, ni := range sizes {
		last := i == len(sizes)-1
		levelCap := 2*len(SifterSchedule(ni)) + 4 // Θ(log log n_i) with slack
		if levelCap > ni {
			levelCap = max(ni, 1)
		}
		levels := levelCap
		if last {
			// The final chain must never exhaust: full length n.
			levels = max(n, 1)
			levelCap = levels
		}
		pis := SifterSchedule(ni)
		a.subs[i] = NewChain(s, levels, func(level int) groupelect.GroupElector {
			if level < len(pis) {
				return groupelect.NewSifter(s, pis[level])
			}
			return groupelect.NewDummy()
		})
		a.caps[i] = levelCap
		a.finals[i] = twoproc.Make(s)
	}
	return a
}

// towerSize returns n_i = 2^(2^(2^i)), or -1 on overflow.
func towerSize(i int) int {
	e := 1
	for j := 0; j < i; j++ {
		e *= 2
		if e > 62 {
			return -1
		}
	}
	// n_i = 2^(2^e)
	exp := 1
	for j := 0; j < e; j++ {
		exp *= 2
		if exp > 62 {
			return -1
		}
	}
	return 1 << uint(exp)
}

// Elect runs the adaptive election and returns true iff the caller wins.
func (a *AdaptiveLE) Elect(h shm.Handle) bool {
	for i := range a.subs {
		switch a.subs[i].ElectCapped(h, a.caps[i]) {
		case Lost:
			return false
		case Won:
			// Winner of chain i descends the finals ladder.
			if !a.finals[i].Elect(h, 0) {
				return false
			}
			for j := i - 1; j >= 0; j-- {
				if !a.finals[j].Elect(h, 1) {
					return false
				}
			}
			return true
		case Exhausted:
			// Proceed to the next, larger chain.
		}
	}
	// Unreachable: the last chain has full length and cannot exhaust.
	return false
}

// Chains returns the number of cascaded chains (⌈log log log n⌉ + O(1)).
func (a *AdaptiveLE) Chains() int { return len(a.subs) }
