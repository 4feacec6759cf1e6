package twoproc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/shm"
	"repro/internal/sim"
)

// --- Exhaustive model checking of the 2-process protocol -----------------
//
// The protocol's safety claims (at most one winner, at most one loser
// unless a caller departed) must hold for EVERY schedule, EVERY coin
// outcome and, on the abortable entry, EVERY abort point. We enumerate
// them: binary schedules up to a depth bound, crossed with explicit
// per-process coin tapes fed through sim.Config.CoinFunc and with abort
// flags raised from sim.Config.StepHook.

type outcome int8

const (
	outRunning outcome = iota
	outWon
	outLost
)

// noAbort is the abort point of a process that never aborts.
const noAbort = -1

// execution is what one bounded run observed.
type execution struct {
	res      [2]outcome // outRunning if the process did not finish
	aborted  [2]bool    // the call resolved by abort
	steps    [2]int
	lastOwn  [2]shm.Value // last value written to the own flag; -1 if none
	overflow bool         // a process ran out of coin tape
}

// bounded runs the 2-process LE under explicit schedules, coin tapes and
// abort points, recycling one simulated System across runs.
type bounded struct {
	sys    *sim.System
	le     *LE
	tapes  [2][]bool
	pos    [2]int
	aborts [2]int
	hs     [2]shm.Handle
	ex     execution
}

func newBounded() *bounded {
	b := &bounded{}
	b.sys = sim.NewSystem(sim.Config{
		N:     2,
		Seed:  1,
		Reuse: true,
		CoinFunc: func(pid int, _ float64) bool {
			if b.pos[pid] >= len(b.tapes[pid]) {
				b.ex.overflow = true
				return false
			}
			bit := b.tapes[pid][b.pos[pid]]
			b.pos[pid]++
			return bit
		},
		StepHook: func(ev sim.StepEvent) {
			if ev.Kind == sim.OpWrite && ev.Reg == b.le.flags[ev.PID].RegisterID() {
				b.ex.lastOwn[ev.PID] = ev.Val
			}
			if b.sys.StepsOf(ev.PID) == b.aborts[ev.PID] {
				b.hs[ev.PID].Abort()
			}
		},
	})
	b.le = New(b.sys)
	return b
}

// run executes the schedule, stopping once it is exhausted. Process pid
// raises its abort flag, through the handle its body received, after
// its aborts[pid]-th step (0: before its first). With no abort point on
// either process both run the plain Elect; otherwise both run
// ElectAbortable.
func (b *bounded) run(schedule []int, tapes [2][]bool, aborts [2]int) execution {
	b.sys.Reset(1)
	b.tapes, b.pos, b.aborts = tapes, [2]int{}, aborts
	b.ex = execution{lastOwn: [2]shm.Value{-1, -1}}
	abortable := aborts != [2]int{noAbort, noAbort}
	b.sys.Start(func(h shm.Handle) {
		id := h.ID()
		b.hs[id] = h
		if aborts[id] == 0 {
			h.Abort()
		}
		won := false
		if abortable {
			won, b.ex.aborted[id] = b.le.ElectAbortable(h, id)
		} else {
			won = b.le.Elect(h, id)
		}
		b.ex.res[id] = outLost
		if won {
			b.ex.res[id] = outWon
		}
	})
	for _, pid := range schedule {
		if b.sys.Parked(pid) {
			b.sys.Step(pid)
		}
	}
	for pid := 0; pid < 2; pid++ {
		b.ex.steps[pid] = b.sys.StepsOf(pid)
		if !b.sys.Finished(pid) {
			b.ex.res[pid] = outRunning
		}
	}
	b.sys.Close()
	return b.ex
}

func tapeFromBits(bits uint, width int) []bool {
	tape := make([]bool, width)
	for i := 0; i < width; i++ {
		tape[i] = bits>>i&1 == 1
	}
	return tape
}

func scheduleFromBits(bits uint, width int) []int {
	seq := make([]int, width)
	for i := 0; i < width; i++ {
		seq[i] = int(bits >> i & 1)
	}
	return seq
}

// checkSafety asserts the protocol's safety ladder on one execution:
//
//   - never two winners;
//   - never two losers unless some call departed by abort;
//   - an aborted call never wins;
//   - an abort before the first raise takes zero steps;
//   - an aborter's last write to its own flag is down.
func checkSafety(t *testing.T, ex execution, aborts [2]int, ctx string) {
	t.Helper()
	if ex.res[0] == outWon && ex.res[1] == outWon {
		t.Fatalf("%s: both processes won", ctx)
	}
	if ex.res[0] == outLost && ex.res[1] == outLost && !ex.aborted[0] && !ex.aborted[1] {
		t.Fatalf("%s: both processes lost and neither departed", ctx)
	}
	for pid := 0; pid < 2; pid++ {
		if ex.aborted[pid] && ex.res[pid] == outWon {
			t.Fatalf("%s: process %d won an aborted call", ctx, pid)
		}
		if aborts[pid] == 0 && (!ex.aborted[pid] || ex.steps[pid] != 0) {
			t.Fatalf("%s: process %d aborted before entry: aborted=%v after %d steps, want true after 0",
				ctx, pid, ex.aborted[pid], ex.steps[pid])
		}
		if ex.aborted[pid] && ex.lastOwn[pid] == up {
			t.Fatalf("%s: process %d departed with its flag up", ctx, pid)
		}
	}
}

// TestExhaustiveShallow enumerates every schedule of length 8 crossed with
// every pair of 3-bit coin tapes, 2^8 · 2^6 = 16384 executions, and each
// of those with every pair of abort points: none, or after the process's
// j-th step for every j up to the depth. An abort point the process does
// not reach is never raised, so its execution is the one without it, and
// every later point is unreachable too: p0's loop stops at the first
// point p0 does not reach, p1's at the first point p1 reaches in none of
// p0's runs.
func TestExhaustiveShallow(t *testing.T) {
	const schedBits, tapeBits = 8, 3
	b := newBounded()
	defer b.sys.Release()
	for sb := uint(0); sb < 1<<schedBits; sb++ {
		sched := scheduleFromBits(sb, schedBits)
		var turns [2]int
		for _, pid := range sched {
			turns[pid]++
		}
		for tb := uint(0); tb < 1<<(2*tapeBits); tb++ {
			tapes := [2][]bool{
				tapeFromBits(tb&(1<<tapeBits-1), tapeBits),
				tapeFromBits(tb>>tapeBits, tapeBits),
			}
			for a1 := noAbort; a1 <= turns[1]; a1++ {
				reached1 := false
				for a0 := noAbort; a0 <= turns[0]; a0++ {
					aborts := [2]int{a0, a1}
					ex := b.run(sched, tapes, aborts)
					checkSafety(t, ex, aborts, "shallow")
					reached1 = reached1 || ex.steps[1] >= a1
					if ex.steps[0] < a0 {
						break // p0's abort was never raised
					}
				}
				if !reached1 {
					break // p1's abort was never raised
				}
			}
		}
	}
}

// TestExhaustiveDeepStructuredTapes enumerates every schedule of length 12
// against a set of adversarially structured coin tapes (always-up,
// always-down, alternating phases, anti-aligned pairs) — the patterns that
// keep the race alive longest.
func TestExhaustiveDeepStructuredTapes(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive deep check skipped in -short mode")
	}
	mk := func(pattern string) []bool {
		tape := make([]bool, 8)
		for i := range tape {
			switch pattern {
			case "up":
				tape[i] = true
			case "down":
				tape[i] = false
			case "alt":
				tape[i] = i%2 == 0
			case "tla":
				tape[i] = i%2 == 1
			}
			_ = i
		}
		return tape
	}
	patterns := []string{"up", "down", "alt", "tla"}
	const schedBits = 12
	b := newBounded()
	defer b.sys.Release()
	none := [2]int{noAbort, noAbort}
	for sb := uint(0); sb < 1<<schedBits; sb++ {
		sched := scheduleFromBits(sb, schedBits)
		for _, p0 := range patterns {
			for _, p1 := range patterns {
				ex := b.run(sched, [2][]bool{mk(p0), mk(p1)}, none)
				checkSafety(t, ex, none, "deep "+p0+"/"+p1)
			}
		}
	}
}

// TestCompletionOutcomes verifies that whenever both processes run to
// completion, exactly one wins and one loses (randomized schedules and
// real coins).
func TestCompletionOutcomes(t *testing.T) {
	for seed := int64(0); seed < 500; seed++ {
		sys := sim.NewSystem(sim.Config{N: 2, Seed: seed})
		le := New(sys)
		var won [2]bool
		res := sys.Run(sim.NewRandomOblivious(seed*31+7), func(h shm.Handle) {
			won[h.ID()] = le.Elect(h, h.ID())
		})
		if !res.Finished[0] || !res.Finished[1] {
			t.Fatalf("seed %d: did not finish", seed)
		}
		if won[0] == won[1] {
			t.Fatalf("seed %d: outcomes %v, want exactly one winner", seed, won)
		}
	}
}

// TestSoloWins pins the solo-termination behaviour: a lone caller wins in
// exactly 2 steps.
func TestSoloWins(t *testing.T) {
	for slot := 0; slot < 2; slot++ {
		sys := sim.NewSystem(sim.Config{N: 1, Seed: 9})
		le := New(sys)
		won := false
		res := sys.Run(sim.NewRoundRobin(), func(h shm.Handle) {
			won = le.Elect(h, slot)
		})
		if !won {
			t.Fatalf("slot %d: solo caller lost", slot)
		}
		if res.Steps[0] != 2 {
			t.Fatalf("slot %d: solo caller took %d steps, want 2", slot, res.Steps[0])
		}
	}
}

// TestConstantExpectedSteps measures expected individual step complexity
// under fair, adversarial-lockstep and solo-first schedules; the paper's
// building block requires O(1) in all cases.
func TestConstantExpectedSteps(t *testing.T) {
	advs := map[string]func() sim.Adversary{
		"round-robin": func() sim.Adversary { return sim.NewRoundRobin() },
		"lockstep":    func() sim.Adversary { return sim.NewLockstep() },
		"solo-first":  func() sim.Adversary { return sim.NewSoloFirst() },
	}
	for name, mk := range advs {
		total := 0
		const trials = 400
		for seed := int64(0); seed < trials; seed++ {
			sys := sim.NewSystem(sim.Config{N: 2, Seed: seed})
			le := New(sys)
			res := sys.Run(mk(), func(h shm.Handle) {
				le.Elect(h, h.ID())
			})
			total += res.MaxSteps
		}
		mean := float64(total) / trials
		// The geometric tail gives E[max steps] ≤ ~8; allow slack.
		if mean > 12 {
			t.Errorf("%s: mean max steps = %.2f, want O(1) (≤ 12)", name, mean)
		}
	}
}

// TestRegisterFootprint pins the O(1) space bound.
func TestRegisterFootprint(t *testing.T) {
	sys := sim.NewSystem(sim.Config{N: 2, Seed: 1})
	New(sys)
	if got := sys.RegisterCount(); got != 2 {
		t.Errorf("2-process LE uses %d registers, want 2", got)
	}
	sys2 := sim.NewSystem(sim.Config{N: 3, Seed: 1})
	Make3(sys2)
	if got := sys2.RegisterCount(); got != 4 {
		t.Errorf("3-process LE uses %d registers, want 4", got)
	}
}

// --- LE3 ------------------------------------------------------------------

// runLE3 executes a subset of roles through one LE3 and returns who won.
func runLE3(t *testing.T, roles []Role, seed int64) map[Role]bool {
	t.Helper()
	sys := sim.NewSystem(sim.Config{N: len(roles), Seed: seed})
	le := Make3(sys)
	results := make([]bool, len(roles))
	res := sys.Run(sim.NewRandomOblivious(seed+999), func(h shm.Handle) {
		results[h.ID()] = le.Elect(h, roles[h.ID()])
	})
	out := make(map[Role]bool, len(roles))
	for i, r := range roles {
		if !res.Finished[i] {
			t.Fatalf("role %v did not finish", r)
		}
		out[r] = results[i]
	}
	return out
}

func TestLE3AllRoleSubsets(t *testing.T) {
	all := []Role{Here, FromLeft, FromRight}
	// Every non-empty subset of roles participates.
	for mask := 1; mask < 8; mask++ {
		var roles []Role
		for i, r := range all {
			if mask>>i&1 == 1 {
				roles = append(roles, r)
			}
		}
		for seed := int64(0); seed < 60; seed++ {
			out := runLE3(t, roles, seed)
			winners := 0
			for _, won := range out {
				if won {
					winners++
				}
			}
			if winners != 1 {
				t.Fatalf("roles %v seed %d: %d winners, want exactly 1", roles, seed, winners)
			}
		}
	}
}

// TestElectQuick fuzzes slot assignment and schedules via testing/quick.
func TestElectQuick(t *testing.T) {
	prop := func(seed int64, flip bool) bool {
		sys := sim.NewSystem(sim.Config{N: 2, Seed: seed})
		le := New(sys)
		var won [2]bool
		slot := func(pid int) int {
			if flip {
				return 1 - pid
			}
			return pid
		}
		res := sys.Run(sim.NewRandomOblivious(seed^0x2e), func(h shm.Handle) {
			won[h.ID()] = le.Elect(h, slot(h.ID()))
		})
		return res.Finished[0] && res.Finished[1] && won[0] != won[1]
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(2))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}
