package combiner

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/concurrent"
	"repro/internal/core"
	"repro/internal/ratrace"
	"repro/internal/shm"
	"repro/internal/sim"
)

// build constructs the Corollary 4.2 object: space-efficient RatRace
// combined with the log* chain.
func build(s shm.Space, n int) (*Combined, *core.ChainLE) {
	rr := ratrace.NewSpaceEfficient(s, n)
	chain := core.NewLogStar(s, n)
	return New(s, rr, chain), chain
}

func runCombined(t *testing.T, k, n int, seed int64, adv sim.Adversary) ([]bool, sim.Result) {
	t.Helper()
	sys := sim.NewSystem(sim.Config{N: k, Seed: seed})
	comb, _ := build(sys, n)
	won := make([]bool, k)
	res := sys.Run(adv, func(h shm.Handle) {
		won[h.ID()] = comb.Elect(h)
	})
	for pid, ok := range res.Finished {
		if !ok {
			t.Fatalf("process %d did not finish", pid)
		}
	}
	return won, res
}

func winners(won []bool) int {
	c := 0
	for _, w := range won {
		if w {
			c++
		}
	}
	return c
}

// TestExactlyOneWinner: the combined object remains a correct leader
// election under fair and adversarial schedules.
func TestExactlyOneWinner(t *testing.T) {
	advs := map[string]func(seed int64) sim.Adversary{
		"round-robin": func(int64) sim.Adversary { return sim.NewRoundRobin() },
		"random":      func(s int64) sim.Adversary { return sim.NewRandomOblivious(s + 41) },
		"lockstep":    func(int64) sim.Adversary { return sim.NewLockstep() },
		"solo-first":  func(int64) sim.Adversary { return sim.NewSoloFirst() },
	}
	const n = 16
	for name, mkAdv := range advs {
		for _, k := range []int{1, 2, 5, 16} {
			for seed := int64(0); seed < 12; seed++ {
				won, _ := runCombined(t, k, n, seed, mkAdv(seed))
				if w := winners(won); w != 1 {
					t.Fatalf("%s k=%d seed=%d: %d winners, want 1", name, k, seed, w)
				}
			}
		}
	}
}

// TestSelfCombination: the paper's motivating pathology is combining
// RatRace with RatRace, where naive outcome-merging can leave no winner.
// Rule 3 must prevent that.
func TestSelfCombination(t *testing.T) {
	const n = 8
	for _, k := range []int{2, 4, 8} {
		for seed := int64(0); seed < 25; seed++ {
			sys := sim.NewSystem(sim.Config{N: k, Seed: seed})
			rr1 := ratrace.NewSpaceEfficient(sys, n)
			rr2 := ratrace.NewSpaceEfficient(sys, n)
			comb := New(sys, rr1, rr2)
			won := make([]bool, k)
			res := sys.Run(sim.NewRandomOblivious(seed+5), func(h shm.Handle) {
				won[h.ID()] = comb.Elect(h)
			})
			for pid, ok := range res.Finished {
				if !ok {
					t.Fatalf("k=%d seed=%d: process %d unfinished", k, seed, pid)
				}
			}
			if w := winners(won); w != 1 {
				t.Fatalf("rr×rr k=%d seed=%d: %d winners, want 1", k, seed, w)
			}
		}
	}
}

// TestAdaptiveAttackStaysLogarithmic is Theorem 4.1's point: under the
// ascending-location attack the plain log* chain needs Ω(k) steps, while
// the combined algorithm stays near RatRace's O(log k).
func TestAdaptiveAttackStaysLogarithmic(t *testing.T) {
	naive := map[int]int{}
	combined := map[int]int{}
	for _, k := range []int{8, 16, 32, 64} {
		// Plain chain under attack.
		sysN := sim.NewSystem(sim.Config{N: k, Seed: 9})
		chainN := core.NewLogStar(sysN, k)
		resN := sysN.Run(sim.NewAscendingLocation(chainN.IsArrayRegister), func(h shm.Handle) {
			chainN.Elect(h)
		})
		naive[k] = resN.MaxSteps

		// Combined object under the same attack policy.
		sysC := sim.NewSystem(sim.Config{N: k, Seed: 9})
		comb, chainC := build(sysC, k)
		resC := sysC.Run(sim.NewAscendingLocation(chainC.IsArrayRegister), func(h shm.Handle) {
			comb.Elect(h)
		})
		combined[k] = resC.MaxSteps
	}
	if naive[64] < 3*naive[8] {
		t.Errorf("naive chain should degrade linearly under attack: %v", naive)
	}
	// The combined algorithm may pay a constant factor (interleaving
	// doubles steps) but must not degrade linearly.
	if combined[64] >= 3*combined[8] && combined[64] > naive[64]/2 {
		t.Errorf("combined degraded under adaptive attack: combined=%v naive=%v", combined, naive)
	}
}

// TestWeakAdversaryOverheadConstant: under an oblivious schedule, the
// combined object costs only a constant factor more than the plain chain.
func TestWeakAdversaryOverheadConstant(t *testing.T) {
	const n = 256
	for _, k := range []int{4, 32, 128} {
		const trials = 15
		sumPlain, sumComb := 0, 0
		for seed := int64(0); seed < trials; seed++ {
			sysP := sim.NewSystem(sim.Config{N: k, Seed: seed})
			chain := core.NewLogStar(sysP, n)
			resP := sysP.Run(sim.NewRandomOblivious(seed+1), func(h shm.Handle) {
				chain.Elect(h)
			})
			sumPlain += resP.MaxSteps

			sysC := sim.NewSystem(sim.Config{N: k, Seed: seed})
			comb, _ := build(sysC, n)
			resC := sysC.Run(sim.NewRandomOblivious(seed+1), func(h shm.Handle) {
				comb.Elect(h)
			})
			sumComb += resC.MaxSteps
		}
		ratio := float64(sumComb) / float64(sumPlain)
		// Interleaving doubles the step count and RatRace's own O(log k)
		// runs alongside; the ratio must stay bounded, not grow with k.
		if ratio > 12 {
			t.Errorf("k=%d: combined/plain step ratio %.1f too large", k, ratio)
		}
	}
}

// TestSpaceOverheadConstant: Theorem 4.1 promises Θ(n) + space(A).
func TestSpaceOverheadConstant(t *testing.T) {
	for _, n := range []int{64, 256} {
		sysA := sim.NewSystem(sim.Config{N: 1, Seed: 1})
		core.NewLogStar(sysA, n)
		plain := sysA.RegisterCount()

		sysC := sim.NewSystem(sim.Config{N: 1, Seed: 1})
		build(sysC, n)
		comb := sysC.RegisterCount()

		if comb > 10*plain+1000 {
			t.Errorf("n=%d: combined uses %d registers vs %d plain — want Θ(n) overhead", n, comb, plain)
		}
	}
}

// TestCorollary42SiftingVariant: the corollary's second instantiation —
// RatRace combined with the adaptive sifting LE — must also elect exactly
// one leader and stay logarithmic under the adaptive schedule.
func TestCorollary42SiftingVariant(t *testing.T) {
	const n = 16
	for _, k := range []int{2, 8, 16} {
		for seed := int64(0); seed < 10; seed++ {
			sys := sim.NewSystem(sim.Config{N: k, Seed: seed})
			rr := ratrace.NewSpaceEfficient(sys, n)
			alg := core.NewAdaptiveSifting(sys, n)
			comb := New(sys, rr, alg)
			won := make([]bool, k)
			res := sys.Run(sim.NewLockstep(), func(h shm.Handle) {
				won[h.ID()] = comb.Elect(h)
			})
			for pid, ok := range res.Finished {
				if !ok {
					t.Fatalf("k=%d seed=%d: process %d unfinished", k, seed, pid)
				}
			}
			if w := winners(won); w != 1 {
				t.Fatalf("rr×adaptive-sifting k=%d seed=%d: %d winners", k, seed, w)
			}
		}
	}
}

// TestDeterminism: fiber seeding must preserve simulator determinism.
func TestDeterminism(t *testing.T) {
	run := func() ([]bool, int) {
		sys := sim.NewSystem(sim.Config{N: 6, Seed: 77})
		comb, _ := build(sys, 6)
		won := make([]bool, 6)
		res := sys.Run(sim.NewRoundRobin(), func(h shm.Handle) {
			won[h.ID()] = comb.Elect(h)
		})
		return won, res.TotalSteps
	}
	w1, s1 := run()
	w2, s2 := run()
	if s1 != s2 {
		t.Fatalf("total steps differ: %d vs %d", s1, s2)
	}
	for i := range w1 {
		if w1[i] != w2[i] {
			t.Fatalf("winner sets differ at %d", i)
		}
	}
}

// TestNoFiberOutlivesCrash crashes processes inside Elect, both by an
// adversary that stops early (Close kills the parked processes) and by an
// explicit Kill, and on a Reuse System that is Reset mid-election and
// then Released mid-election, and checks that the goroutine count returns
// to its baseline: a fiber may outlive its election, but no fiber
// outlives its System.
func TestNoFiberOutlivesCrash(t *testing.T) {
	base := runtime.NumGoroutine()
	for seed := int64(0); seed < 20; seed++ {
		sys := sim.NewSystem(sim.Config{N: 4, Seed: seed})
		comb, _ := build(sys, 4)
		body := func(h shm.Handle) { comb.Elect(h) }
		if seed%2 == 0 {
			steps := 0
			sys.Run(&sim.Func{Vis: sim.VisibilityAdaptive, Pick: func(v sim.View) int {
				if steps >= 12 {
					return -1
				}
				steps++
				return sim.NewLockstep().Next(v)
			}}, body)
			continue
		}
		sys.Start(body)
		for i := 0; i < 3; i++ {
			sys.Step(1)
		}
		sys.Kill(1)
		sys.Close()
	}
	for seed := int64(0); seed < 10; seed++ {
		sys := sim.NewSystem(sim.Config{N: 4, Seed: seed, Reuse: true})
		comb, _ := build(sys, 4)
		body := func(h shm.Handle) { comb.Elect(h) }
		for round := 0; round < 2; round++ {
			sys.Start(body)
			for i, pid := 0, 0; i < 10+int(seed); pid = (pid + 1) % 4 {
				if sys.Parked(pid) {
					sys.Step(pid)
					i++
				}
			}
			if round == 0 {
				sys.Reset(seed + 1) // kills the parked processes, fibers and all
			}
		}
		sys.Release() // likewise, mid-election
	}
	// A killed goroutine fiber exits shortly after Elect returns.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after 40 crashed runs, want the baseline %d", n, base)
	}
}

// TestCombinedTrialAllocations runs pooled combined trials, as a
// harness worker does: space-efficient RatRace with log* at n = 256 on a
// Reuse System with k = 16, Reset between random-oblivious trials. Each
// process keeps its two coroutine fibers parked between trials, so a
// trial allocates no fibers (its adversary is one allocation), k process
// coroutines and 2k fibers stay parked however many trials run, and
// Release ends them all.
func TestCombinedTrialAllocations(t *testing.T) {
	const n, k = 256, 16
	base := runtime.NumGoroutine()
	sys := sim.NewSystem(sim.Config{N: k, Seed: 0, Reuse: true})
	comb, _ := build(sys, n)
	winners := 0
	body := func(h shm.Handle) {
		if comb.Elect(h) {
			winners++
		}
	}
	var res sim.Result
	seed := int64(0)
	trial := func() {
		sys.Reset(seed)
		winners = 0
		sys.RunInto(sim.NewRandomOblivious(seed+977), body, &res)
		if winners != 1 {
			t.Fatalf("seed %d: %d winners, want 1", seed, winners)
		}
		seed++
	}
	parked := func(wantProcs, wantFibers int) {
		t.Helper()
		procs, fibers := parkedCoroutines()
		if procs != wantProcs || fibers != wantFibers {
			t.Errorf("after %d trials: %d process and %d fiber coroutines, want %d and %d", seed, procs, fibers, wantProcs, wantFibers)
		}
		if n := runtime.NumGoroutine(); n > base+wantProcs+wantFibers {
			t.Errorf("after %d trials: %d goroutines, want at most the baseline %d + %d", seed, n, base, wantProcs+wantFibers)
		}
	}
	trial()
	parked(k, 2*k)
	if a := testing.AllocsPerRun(100, trial); a > 2 {
		t.Errorf("%.1f allocations per pooled combined trial, want at most 2", a)
	}
	parked(k, 2*k)
	sys.Release()
	parked(0, 0)
}

// parkedCoroutines counts, in a dump of every goroutine's stack, the
// coroutines of simulated processes and of combiner fibers. Unlike
// runtime.NumGoroutine it does not count an earlier test's goroutine
// that is still exiting.
func parkedCoroutines() (procs, fibers int) {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	for _, g := range strings.Split(string(buf), "\n\n") {
		switch {
		case strings.Contains(g, "combiner.(*coFiber).body"):
			fibers++
		case strings.Contains(g, "sim.(*proc).run"):
			procs++
		}
	}
	return procs, fibers
}

// TestConcurrentBackend runs the combined object on production handles,
// whose fibers are goroutines: k goroutines race through many rounds on
// one Space, Reset between rounds as the arena recycles it. Every round
// must elect exactly one winner, and no fiber goroutine may outlive its
// round.
func TestConcurrentBackend(t *testing.T) {
	const k, n = 4, 8
	rounds := 300
	if testing.Short() {
		rounds = 50
	}
	base := runtime.NumGoroutine()
	s := concurrent.NewSpace()
	comb, _ := build(s, n)
	s.Seal()
	if comb.sim {
		t.Fatal("a Combined on a production Space runs coroutine fibers")
	}
	handles := make([]*concurrent.Handle, k)
	for id := range handles {
		handles[id] = concurrent.NewHandle(id, int64(id)+1)
	}
	for round := 0; round < rounds; round++ {
		var wins atomic.Int32
		var start, done sync.WaitGroup
		start.Add(1)
		for _, h := range handles {
			done.Add(1)
			go func() {
				defer done.Done()
				start.Wait()
				if comb.Elect(h) {
					wins.Add(1)
				}
			}()
		}
		start.Done()
		done.Wait()
		if w := wins.Load(); w != 1 {
			t.Fatalf("round %d: %d winners, want 1", round, w)
		}
		s.Reset()
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > base {
		t.Fatalf("%d goroutines after %d rounds, want the baseline %d", got, rounds, base)
	}
}

// boomElector takes steps writes and then panics: a bug inside a
// constituent election.
type boomElector struct {
	r     shm.Register
	steps int
}

type boom struct{}

func (b boomElector) Elect(h shm.Handle) bool {
	for range b.steps {
		h.Write(b.r, 1)
	}
	panic(boom{})
}

// TestFiberPanicSurfaces: a panic inside a fiber of a simulated process
// ends the fibers and surfaces, as any process-body panic does, from the
// simulator call that resumed the process; no fiber is left parked. A
// body that recovers the panic keeps its process, and on a Reuse System
// the fiber whose election panicked, before its first step or after its
// second, is replaced: every later execution panics the same way.
func TestFiberPanicSurfaces(t *testing.T) {
	base := runtime.NumGoroutine()
	sys := sim.NewSystem(sim.Config{N: 1, Seed: 1})
	comb := New(sys, ratrace.NewSpaceEfficient(sys, 4), boomElector{sys.NewRegister(0), 2})
	got := func() (v any) {
		defer func() { v = recover() }()
		sys.Run(sim.NewRoundRobin(), func(h shm.Handle) { comb.Elect(h) })
		return nil
	}()
	if _, ok := got.(boom); !ok {
		t.Fatalf("recovered %v, want the fiber's panic", got)
	}
	sys.Close()
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after the panic, want the baseline %d", n, base)
	}

	for _, steps := range []int{0, 2} {
		sys := sim.NewSystem(sim.Config{N: 1, Seed: 1, Reuse: true})
		comb := New(sys, ratrace.NewSpaceEfficient(sys, 4), boomElector{sys.NewRegister(0), steps})
		for exec := range int64(3) {
			var got any
			sys.Reset(exec)
			sys.Run(sim.NewRoundRobin(), func(h shm.Handle) {
				defer func() { got = recover() }()
				comb.Elect(h)
			})
			if _, ok := got.(boom); !ok {
				t.Fatalf("%d steps, execution %d: recovered %v, want the fiber's panic", steps, exec, got)
			}
		}
		sys.Release()
		if n := runtime.NumGoroutine(); n > base {
			t.Fatalf("%d steps: %d goroutines after Release, want the baseline %d", steps, n, base)
		}
	}
}
