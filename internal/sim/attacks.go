package sim

import "slices"

// Attack adversaries used in the paper's separation arguments. Each one is
// honest about its information class: it declares the weakest Visibility
// that suffices for the attack, and the View filtering guarantees it cannot
// use more than it declares.
//
// Each attack is a key over the View: it steps the parked process with the
// least key, ties going to the lowest pid. A key reads only the process's
// own past steps and pending operation, which change only when that
// process steps, so one ranked adversary keeps the parked processes in a
// binary heap and re-ranks only the process it stepped last: a pick costs
// O(log k), not a scan over all k processes. All attacks are pure
// functions of the View (they draw no coins of their own), so they fall
// on the deterministic side of the engine v2 contract: for a fixed (seed,
// algorithm) the whole execution, including the trace these adversaries
// induce, replays bit-identically on a fresh or a Reset System.

// ranked is the adversary behind every attack. Its heap is valid only
// while its own pick was provably the only step since its last call; it
// is rebuilt from the View on its first call, on another System or
// execution, when View.Time() is not one past its pick, or when the
// picked process's step count did not rise by exactly one (a wrapper
// stepped some other process). A process found unparked at the top has
// finished or was killed, and is dropped.
type ranked struct {
	vis  Visibility
	key  func(v View, pid int) (int, int)
	heap []rankedPID

	// heap[0] is the pick of the last call, made on sys in execution
	// execs at time time, when the picked process had taken steps steps.
	sys   *System
	execs int
	time  int
	steps int
}

// rankedPID is one parked process and its key.
type rankedPID struct{ k1, k2, pid int }

func (a rankedPID) less(b rankedPID) bool {
	if a.k1 != b.k1 {
		return a.k1 < b.k1
	}
	if a.k2 != b.k2 {
		return a.k2 < b.k2
	}
	return a.pid < b.pid
}

// Visibility implements Adversary.
func (r *ranked) Visibility() Visibility { return r.vis }

// Next implements Adversary.
func (r *ranked) Next(v View) int {
	s := v.sys
	if s != r.sys || s.execs != r.execs || s.time != r.time+1 || s.StepsOf(r.heap[0].pid) != r.steps+1 {
		r.rebuild(v)
	} else if top := &r.heap[0]; s.Parked(top.pid) {
		top.k1, top.k2 = r.key(v, top.pid)
		r.down(0)
	}
	for last := len(r.heap) - 1; last >= 0 && !s.Parked(r.heap[0].pid); last-- {
		r.heap[0] = r.heap[last]
		r.heap = r.heap[:last]
		r.down(0)
	}
	if len(r.heap) == 0 {
		r.sys = nil
		return -1
	}
	pid := r.heap[0].pid
	r.sys, r.execs, r.time, r.steps = s, s.execs, s.time, s.StepsOf(pid)
	return pid
}

func (r *ranked) rebuild(v View) {
	r.heap = slices.Grow(r.heap[:0], v.N())
	for pid := 0; pid < v.N(); pid++ {
		if v.Parked(pid) {
			k1, k2 := r.key(v, pid)
			r.heap = append(r.heap, rankedPID{k1, k2, pid})
		}
	}
	for i := len(r.heap)/2 - 1; i >= 0; i-- {
		r.down(i)
	}
}

// down restores the heap order below i.
func (r *ranked) down(i int) {
	h := r.heap
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1].less(h[c]) {
			c++
		}
		if !h[c].less(h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// writeRank orders a pending read (0) before anything else (1).
func writeRank(v View, pid int) int {
	if v.PendingKind(pid) == OpRead {
		return 0
	}
	return 1
}

// NewAscendingLocation returns the R/W-oblivious attack on the Figure 1
// group election (and on the Section 2.1 chain built from it).
//
// isArray reports whether a register id is a slot of some Figure 1 R
// array. This is *static* layout knowledge — the algorithm's code and
// allocation order are public — not runtime information; the adversary
// still never observes whether a pending operation is a read or a write.
//
// The schedule: among parked processes, pick the one whose pending
// operation targets the lowest-numbered register; at the same register,
// order by past step count — ascending everywhere except on array slots,
// where descending. Its key is (pending register, −steps on array slots
// and +steps elsewhere), so isArray runs once per step. Because chains
// allocate registers in level order and survivors of level i have
// identical step counts, this
//
//  1. lets every process pass the flag doorway (doorway reads, at the
//     lower step count, precede doorway writes), maximizing participation,
//  2. executes R-array writes in ascending slot order, with each write's
//     follow-up read of R[x+1] (higher step count) scheduled before any
//     write to R[x+1] — so every read returns 0 and every participant is
//     elected: f(k) degrades to k, and
//  3. walks splitters so that no process receives Left, eliminating only
//     one process per level.
//
// The Section 2.1 chain then needs Θ(k) levels: the paper's observation
// that the Figure 1 algorithm is not efficient against the R/W-oblivious
// adversary.
func NewAscendingLocation(isArray func(reg int) bool) Adversary {
	if isArray == nil {
		isArray = func(int) bool { return false }
	}
	return &ranked{vis: VisibilityRW, key: func(v View, pid int) (int, int) {
		reg := v.PendingReg(pid)
		if isArray(reg) {
			return reg, -v.Steps(pid)
		}
		return reg, v.Steps(pid)
	}}
}

// NewLockstepReadsFirst returns the location-oblivious attack on sifting
// chains (Section 2.3). It keeps all processes aligned (fewest past steps
// first) and, within a step-aligned round, schedules pending reads before
// pending writes — information the location-oblivious adversary has (it
// sees operation types, not locations). Its key is (steps, isWrite).
//
// Survivors of each chain level have identical step counts, so every
// level's sifter operations form one aligned round: all sifter reads
// execute before any sifter write, every reader sees 0, and every
// participant is elected — f(k) = k. The splitter rounds align too (no
// process receives Left), so exactly one process is eliminated per level
// and the chain needs Θ(k) levels: sifting is not efficient against the
// location-oblivious adversary, which is why the paper pairs each group
// election with its own adversary class.
func NewLockstepReadsFirst() Adversary {
	return &ranked{vis: VisibilityLocation, key: func(v View, pid int) (int, int) {
		return v.Steps(pid), writeRank(v, pid)
	}}
}

// NewReadersFirst returns the location-oblivious attack on the sifting
// group election of Alistarh and Aspnes (Section 2.3).
//
// A sifter participant either writes the shared register (with probability
// π) or reads it; it is elected iff it writes, or reads before any write.
// The location-oblivious adversary sees the *type* of pending operations,
// so it simply schedules every pending read before any pending write (its
// key is isWrite): all readers see the initial 0 and every participant is
// elected, f(k) = k. This is why the paper pairs each group election with
// the adversary class it is designed for.
func NewReadersFirst() Adversary {
	return &ranked{vis: VisibilityLocation, key: func(v View, pid int) (int, int) {
		return writeRank(v, pid), 0
	}}
}

// NewLockstep returns an adaptive adversary that always steps a process
// with the fewest steps taken so far (its key is steps), keeping all
// processes maximally aligned. Against splitter-based structures (RatRace
// and its space-efficient variant) this maximizes collisions: aligned
// processes fail splitters together and descend deep into the tree.
// RatRace's O(log k) bound must hold even against this schedule.
func NewLockstep() Adversary {
	return &ranked{vis: VisibilityAdaptive, key: func(v View, pid int) (int, int) {
		return v.Steps(pid), 0
	}}
}

// NewSoloFirst returns an adaptive adversary that runs one process at a
// time to completion, in pid order (every key is equal, so the lowest
// parked pid goes first). This is the schedule that maximizes the
// information later processes can extract from earlier ones and is a
// useful correctness stressor: the first process must win everything solo
// and all others must observe it and lose.
func NewSoloFirst() Adversary {
	return &ranked{vis: VisibilityAdaptive, key: func(View, int) (int, int) { return 0, 0 }}
}
