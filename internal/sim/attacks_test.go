package sim

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/combiner"
	"repro/internal/core"
	"repro/internal/ratrace"
	"repro/internal/shm"
)

// The scanning attacks: every pick scans all k processes through the
// View. They are the references the ranked attacks must match pick for
// pick.

func scanAscendingLocation(isArray func(reg int) bool) Adversary {
	if isArray == nil {
		isArray = func(int) bool { return false }
	}
	return &Func{
		Vis: VisibilityRW,
		Pick: func(v View) int {
			best, bestReg, bestSteps := -1, int(^uint(0)>>1), -1
			for pid := 0; pid < v.N(); pid++ {
				if !v.Parked(pid) {
					continue
				}
				reg := v.PendingReg(pid)
				steps := v.Steps(pid)
				better := false
				switch {
				case best < 0 || reg < bestReg:
					better = true
				case reg == bestReg && isArray(reg) && steps > bestSteps:
					better = true
				case reg == bestReg && !isArray(reg) && steps < bestSteps:
					better = true
				}
				if better {
					best, bestReg, bestSteps = pid, reg, steps
				}
			}
			return best
		},
	}
}

func scanLockstepReadsFirst() Adversary {
	return &Func{
		Vis: VisibilityLocation,
		Pick: func(v View) int {
			best, bestSteps, bestRead := -1, int(^uint(0)>>1), false
			for pid := 0; pid < v.N(); pid++ {
				if !v.Parked(pid) {
					continue
				}
				steps := v.Steps(pid)
				isRead := v.PendingKind(pid) == OpRead
				if best < 0 || steps < bestSteps || (steps == bestSteps && isRead && !bestRead) {
					best, bestSteps, bestRead = pid, steps, isRead
				}
			}
			return best
		},
	}
}

func scanReadersFirst() Adversary {
	return &Func{
		Vis: VisibilityLocation,
		Pick: func(v View) int {
			fallback := -1
			for pid := 0; pid < v.N(); pid++ {
				if !v.Parked(pid) {
					continue
				}
				if v.PendingKind(pid) == OpRead {
					return pid
				}
				if fallback < 0 {
					fallback = pid
				}
			}
			return fallback
		},
	}
}

func scanLockstep() Adversary {
	return &Func{
		Vis: VisibilityAdaptive,
		Pick: func(v View) int {
			best, bestSteps := -1, int(^uint(0)>>1)
			for pid := 0; pid < v.N(); pid++ {
				if v.Parked(pid) && v.Steps(pid) < bestSteps {
					best, bestSteps = pid, v.Steps(pid)
				}
			}
			return best
		},
	}
}

func scanSoloFirst() Adversary {
	return &Func{
		Vis: VisibilityAdaptive,
		Pick: func(v View) int {
			for pid := 0; pid < v.N(); pid++ {
				if v.Parked(pid) {
					return pid
				}
			}
			return -1
		},
	}
}

// attackPair is a ranked attack and its scanning reference, each built
// from the object's static layout knowledge.
type attackPair struct {
	name         string
	ranked, scan func(isArray func(int) bool) Adversary
}

var attackPairs = []attackPair{
	{"ascending-location", NewAscendingLocation, scanAscendingLocation},
	{"lockstep-reads-first", noLayout(NewLockstepReadsFirst), noLayout(scanLockstepReadsFirst)},
	{"readers-first", noLayout(NewReadersFirst), noLayout(scanReadersFirst)},
	{"lockstep", noLayout(NewLockstep), noLayout(scanLockstep)},
	{"solo-first", noLayout(NewSoloFirst), noLayout(scanSoloFirst)},
}

// noLayout adapts an attack that needs no layout knowledge.
func noLayout(mk func() Adversary) func(func(int) bool) Adversary {
	return func(func(int) bool) Adversary { return mk() }
}

// attackObjects are the electors the attacks target, at capacity n = k.
var attackObjects = []struct {
	name  string
	build func(s shm.Space, n int) (body func(h shm.Handle), isArray func(int) bool)
}{
	{"logstar", func(s shm.Space, n int) (func(h shm.Handle), func(int) bool) {
		le := core.NewLogStar(s, n)
		return func(h shm.Handle) { le.Elect(h) }, le.IsArrayRegister
	}},
	{"ratrace-se", func(s shm.Space, n int) (func(h shm.Handle), func(int) bool) {
		le := ratrace.NewSpaceEfficient(s, n)
		return func(h shm.Handle) { le.Elect(h) }, nil
	}},
	{"combined", func(s shm.Space, n int) (func(h shm.Handle), func(int) bool) {
		chain := core.NewLogStar(s, n)
		le := combiner.New(s, ratrace.NewSpaceEfficient(s, n), chain)
		return func(h shm.Handle) { le.Elect(h) }, chain.IsArrayRegister
	}},
	{"sifting", func(s shm.Space, n int) (func(h shm.Handle), func(int) bool) {
		le := core.NewSifting(s, n)
		return func(h shm.Handle) { le.Elect(h) }, nil
	}},
}

// attackWrappers are the ways a caller may drive an attack, each of
// which the ranked attack must follow exactly as the scan does: as is;
// a fresh instance for every step; inside a wrapper that sometimes steps
// a process the attack did not pick, with or without consulting it; and
// with a process killed between picks.
var attackWrappers = []struct {
	name string
	wrap func(sys *System, mk func() Adversary) Adversary
}{
	{"plain", func(_ *System, mk func() Adversary) Adversary { return mk() }},
	{"fresh-each-step", func(_ *System, mk func() Adversary) Adversary {
		return &Func{Vis: mk().Visibility(), Pick: func(v View) int { return mk().Next(v) }}
	}},
	{"diverted", func(_ *System, mk func() Adversary) Adversary {
		a := mk()
		return &Func{Vis: a.Visibility(), Pick: func(v View) int {
			if v.Time()%13 == 7 { // the attack does not see this step
				return nextParked(v, v.Time())
			}
			pid := a.Next(v)
			if v.Time()%5 == 2 { // the attack's pick does not step
				return nextParked(v, pid+1)
			}
			return pid
		}}
	}},
	{"killed", func(sys *System, mk func() Adversary) Adversary {
		a := mk()
		return &Func{Vis: a.Visibility(), Pick: func(v View) int {
			if v.Time()%7 == 3 && v.ParkedCount() > 1 {
				sys.Kill(v.Time() / 7 % v.N())
			}
			return a.Next(v)
		}}
	}},
}

// nextParked returns the first parked pid from pid on, cyclically.
func nextParked(v View, pid int) int {
	for i := 0; i < v.N(); i++ {
		if q := (pid + i) % v.N(); v.Parked(q) {
			return q
		}
	}
	return -1
}

// TestRankedAttacksMatchScans is the differential test of the ranked
// attacks: for every attack, object, contention k, seed and wrapper, the
// pid sequence recorded from StepHook under the ranked attack must equal
// the one under its scanning reference.
func TestRankedAttacksMatchScans(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	run := func(build func(shm.Space, int) (func(shm.Handle), func(int) bool), k int, seed int64,
		mk func(func(int) bool) Adversary, wrap func(*System, func() Adversary) Adversary) []int {
		var pids []int
		sys := NewSystem(Config{N: k, Seed: seed, StepHook: recordSchedule(&pids)})
		body, isArray := build(sys, k)
		sys.Run(wrap(sys, func() Adversary { return mk(isArray) }), body)
		return pids
	}
	runs := 0
	for _, obj := range attackObjects {
		for _, atk := range attackPairs {
			for _, w := range attackWrappers {
				for _, k := range []int{1, 2, 3, 5, 16, 40} {
					for _, seed := range seeds {
						want := run(obj.build, k, seed, atk.scan, w.wrap)
						got := run(obj.build, k, seed, atk.ranked, w.wrap)
						if len(want) == 0 {
							t.Fatalf("%s %s %s k=%d seed %d: no steps", obj.name, atk.name, w.name, k, seed)
						}
						if i := firstDiff(got, want); i >= 0 {
							t.Errorf("%s %s %s k=%d seed %d: step %d of %d/%d: ranked %s, scan %s",
								obj.name, atk.name, w.name, k, seed, i, len(got), len(want), at(got, i), at(want, i))
						}
						runs++
					}
				}
			}
		}
	}
	t.Logf("%d runs compared", runs)
}

// TestRankedAttackAcrossReset reuses one attack instance across Reset:
// a full run, a run stopped early and a full run again, each on a
// different seed, on one Reuse System.
func TestRankedAttackAcrossReset(t *testing.T) {
	run := func(build func(shm.Space, int) (func(shm.Handle), func(int) bool), k int,
		mk func(func(int) bool) Adversary) []int {
		var pids []int
		sys := NewSystem(Config{N: k, Reuse: true, StepHook: recordSchedule(&pids)})
		defer sys.Release()
		body, isArray := build(sys, k)
		adv := mk(isArray)
		for i, seed := range []int64{5, 6, 7} {
			sys.Reset(seed)
			if i != 1 {
				sys.Run(adv, body)
				continue
			}
			stop := 3 * k
			sys.Run(&Func{Vis: adv.Visibility(), Pick: func(v View) int {
				if v.Time() >= stop {
					return -1
				}
				return adv.Next(v)
			}}, body)
		}
		return pids
	}
	for _, obj := range attackObjects {
		for _, atk := range attackPairs {
			for _, k := range []int{2, 5, 16} {
				want := run(obj.build, k, atk.scan)
				got := run(obj.build, k, atk.ranked)
				if i := firstDiff(got, want); i >= 0 {
					t.Errorf("%s %s k=%d: step %d of %d/%d: ranked %s, scan %s",
						obj.name, atk.name, k, i, len(got), len(want), at(got, i), at(want, i))
				}
			}
		}
	}
}

// TestRankedAttackSeesNewExecution: after a Reset, a wrapper steps the
// new execution by hand to the time and step count the attack's last
// pick left behind, so only the execution count tells the attack that
// its heap belongs to another execution.
func TestRankedAttackSeesNewExecution(t *testing.T) {
	run := func(mk func() Adversary) []int {
		var pids []int
		sys := NewSystem(Config{N: 3, Reuse: true, StepHook: recordSchedule(&pids)})
		defer sys.Release()
		r := sys.NewRegister(0)
		body := func(h shm.Handle) {
			for i := 0; i < 4; i++ {
				h.Read(r)
			}
		}
		adv := mk()
		// Lockstep picks p0, p1, p2, p0: the last pick is p0 at time 3,
		// after 1 step.
		sys.Run(&Func{Vis: adv.Visibility(), Pick: func(v View) int {
			if v.Time() == 4 {
				return -1
			}
			return adv.Next(v)
		}}, body)
		sys.Reset(0)
		sys.Run(&Func{Vis: adv.Visibility(), Pick: func(v View) int {
			if v.Time() == 0 { // time 4, p0 at 2 steps
				for _, pid := range []int{0, 0, 2, 2} {
					sys.Step(pid)
				}
			}
			return adv.Next(v)
		}}, body)
		return pids
	}
	want, got := run(scanLockstep), run(NewLockstep)
	if i := firstDiff(got, want); i >= 0 {
		t.Errorf("step %d of %d/%d: ranked %s, scan %s", i, len(got), len(want), at(got, i), at(want, i))
	}
}

// firstDiff returns the first index where a and b differ, or -1 if they
// are equal.
func firstDiff(a, b []int) int {
	if slices.Equal(a, b) {
		return -1
	}
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

func at(s []int, i int) string {
	if i < len(s) {
		return fmt.Sprintf("p%d", s[i])
	}
	return "end"
}
