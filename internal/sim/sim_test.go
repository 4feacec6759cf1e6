package sim

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/combiner"
	"repro/internal/core"
	"repro/internal/ratrace"
	"repro/internal/shm"
)

// recordSchedule returns a StepHook that appends every granted pid to
// *sched.
func recordSchedule(sched *[]int) func(StepEvent) {
	return func(ev StepEvent) { *sched = append(*sched, ev.PID) }
}

// TestDeterminism verifies that identical seeds and adversaries produce
// identical executions — the property every experiment in this repository
// relies on.
func TestDeterminism(t *testing.T) {
	run := func() ([]int, []shm.Value) {
		var sched []int
		sys := NewSystem(Config{N: 8, Seed: 42, StepHook: recordSchedule(&sched)})
		regs := shm.NewRegisterArray(sys, 4, 0)
		res := sys.Run(NewRandomOblivious(7), func(h shm.Handle) {
			for i := 0; i < 5; i++ {
				slot := h.Intn(len(regs))
				v := h.Read(regs[slot])
				h.Write(regs[slot], v+shm.Value(h.ID()+1))
			}
		})
		if res.TotalSteps == 0 {
			return nil, nil
		}
		vals := make([]shm.Value, len(regs))
		for i := range regs {
			vals[i] = sys.Value(regs[i].RegisterID())
		}
		return sched, vals
	}
	s1, v1 := run()
	s2, v2 := run()
	if len(s1) == 0 {
		t.Fatal("no steps recorded")
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("schedules diverge at step %d: %d vs %d", i, s1[i], s2[i])
		}
	}
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatalf("final register %d differs: %d vs %d", i, v1[i], v2[i])
		}
	}
}

// goldenTrace is the step/grant trace of the scenario in runGoldenScenario,
// recorded on the engine v1 (two-channel handshake, math/rand coins) at PR 2.
// The coin streams are overridden with deterministic functions, so the trace
// depends only on the scheduling semantics of the engine — not on the RNG —
// and must survive engine swaps bit for bit.
const goldenTrace = `0:p0:read:r0:0
1:p1:read:r0:0
2:p2:read:r0:0
3:p3:read:r0:0
4:p4:read:r0:0
5:p0:write:r0:1
6:p1:write:r0:1
7:p2:write:r0:1
8:p3:write:r0:1
9:p4:write:r0:1
10:p0:write:r3:1
11:p1:write:r2:1
12:p2:write:r2:1
13:p3:write:r2:1
14:p4:write:r2:1
15:p0:read:r4:0
16:p1:read:r3:1
17:p2:read:r3:1
18:p3:read:r3:1
19:p4:read:r3:1
20:p0:write:r6:0
21:p0:read:r7:0
22:p0:write:r7:1
23:p0:read:r6:0
24:p0:write:r8:1
25:p0:read:r9:0
`

// goldenConfig builds the Config of the golden scenario: 5 processes,
// deterministic coin overrides (counters shared across processes — legal
// because the engine serializes all body code), and a trace hook. The
// returned reset function rewinds the coin counters so the scenario can be
// replayed on a Reset System.
func goldenConfig(trace *strings.Builder) (cfg Config, rewind func()) {
	intnCalls := 0
	coinCalls := 0
	cfg = Config{
		N:    5,
		Seed: 99,
		IntnFunc: func(pid, n int) int {
			intnCalls++
			return (pid*2654435761 + intnCalls*40503) % n
		},
		CoinFunc: func(pid int, prob float64) bool {
			coinCalls++
			return (pid+coinCalls)%3 == 0
		},
		StepHook: func(ev StepEvent) {
			fmt.Fprintf(trace, "%d:p%d:%s:r%d:%d\n", ev.Time, ev.PID, ev.Kind, ev.Reg, ev.Val)
		},
	}
	return cfg, func() { intnCalls, coinCalls = 0, 0 }
}

// TestGoldenTrace replays the golden scenario — core.NewLogStar(·, 16) at
// k = 5 under the adaptive lockstep adversary, coins overridden — and
// demands the exact trace recorded on engine v1. This is the regression
// test for the engine swaps: any change to the coroutine switching, the
// start serialization, or the step accounting that alters scheduling
// semantics shows up as a trace diff.
func TestGoldenTrace(t *testing.T) {
	var trace strings.Builder
	cfg, _ := goldenConfig(&trace)
	sys := NewSystem(cfg)
	le := core.NewLogStar(sys, 16)
	won := 0
	res := sys.Run(NewLockstep(), func(h shm.Handle) {
		if le.Elect(h) {
			won++
		}
	})
	if won != 1 {
		t.Errorf("golden scenario elected %d winners, want 1", won)
	}
	if res.TotalSteps != 26 {
		t.Errorf("golden scenario took %d steps, want 26", res.TotalSteps)
	}
	if got := trace.String(); got != goldenTrace {
		t.Errorf("trace diverges from the engine v1 recording:\n--- got ---\n%s--- want ---\n%s", got, goldenTrace)
	}
}

// TestGoldenTraceAfterReset replays the golden scenario twice on one Reuse
// System with a Reset in between: the recycled registers, coroutines, and
// counters must reproduce the identical trace, including when the first
// execution is cut off mid-flight (dirty registers, killed processes).
func TestGoldenTraceAfterReset(t *testing.T) {
	var trace strings.Builder
	cfg, rewind := goldenConfig(&trace)
	cfg.Reuse = true
	sys := NewSystem(cfg)
	defer sys.Release()
	le := core.NewLogStar(sys, 16)
	body := func(h shm.Handle) { le.Elect(h) }

	// A throwaway execution stopped after 7 steps leaves dirty registers
	// and killed processes behind for Reset to clean up.
	steps := 0
	sys.Run(&Func{Vis: VisibilityAdaptive, Pick: func(v View) int {
		if steps >= 7 {
			return -1
		}
		steps++
		return NewLockstep().Next(v)
	}}, body)

	for round := 0; round < 2; round++ {
		sys.Reset(99)
		rewind()
		trace.Reset()
		res := sys.Run(NewLockstep(), body)
		if res.TotalSteps != 26 {
			t.Errorf("round %d: %d steps, want 26", round, res.TotalSteps)
		}
		if got := trace.String(); got != goldenTrace {
			t.Errorf("round %d: trace diverges after Reset:\n--- got ---\n%s--- want ---\n%s", round, got, goldenTrace)
		}
	}
}

var updateCombined = flag.Bool("update", false, "rewrite testdata/combined-trace.golden")

// combinedGoldenFile pins the step/grant trace of the combined scenario
// in TestGoldenTraceCombined, recorded with the combiner's fibers as
// goroutines relaying over channels.
const combinedGoldenFile = "testdata/combined-trace.golden"

// TestGoldenTraceCombined replays the Corollary 4.2 object — space-
// efficient RatRace combined with core.NewLogStar(·, 16) — at k = 5
// under the lockstep adversary with goldenConfig's coin overrides, on a
// fresh System and then on a Reuse System Reset after an execution cut
// off mid-election. The trace covers both fibers' interleaving, the
// three rules and LE_top, so it pins whatever carries the fibers'
// steps: a change of fiber transport must leave it byte-identical.
func TestGoldenTraceCombined(t *testing.T) {
	var trace strings.Builder
	cfg, rewind := goldenConfig(&trace)
	run := func(sys *System) {
		t.Helper()
		comb := combiner.New(sys, ratrace.NewSpaceEfficient(sys, 16), core.NewLogStar(sys, 16))
		won := 0
		body := func(h shm.Handle) {
			if comb.Elect(h) {
				won++
			}
		}
		if sys.cfg.Reuse {
			// Killed mid-election: fibers parked on pending steps, dirty
			// registers for Reset to clean up.
			steps := 0
			sys.Run(&Func{Vis: VisibilityAdaptive, Pick: func(v View) int {
				if steps >= 23 {
					return -1
				}
				steps++
				return NewLockstep().Next(v)
			}}, body)
			sys.Reset(cfg.Seed)
			rewind()
			trace.Reset()
			won = 0
		}
		res := sys.Run(NewLockstep(), body)
		if won != 1 {
			t.Errorf("combined scenario (reuse %v) elected %d winners, want 1", sys.cfg.Reuse, won)
		}
		for pid, ok := range res.Finished {
			if !ok {
				t.Errorf("combined scenario (reuse %v): process %d did not finish", sys.cfg.Reuse, pid)
			}
		}
	}

	run(NewSystem(cfg))
	fresh := trace.String()
	if *updateCombined {
		if err := os.WriteFile(combinedGoldenFile, []byte(fresh), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(combinedGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	if fresh != string(want) {
		t.Errorf("fresh combined trace diverges from %s: %s", combinedGoldenFile, firstDiffLine(fresh, string(want)))
	}

	trace.Reset()
	rewind()
	cfg.Reuse = true
	sys := NewSystem(cfg)
	defer sys.Release()
	run(sys)
	if got := trace.String(); got != string(want) {
		t.Errorf("combined trace after Reset diverges from %s: %s", combinedGoldenFile, firstDiffLine(got, string(want)))
	}
}

// firstDiffLine names the first line where two traces differ.
func firstDiffLine(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d is %q, want %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("%d lines, want %d", len(g), len(w))
}

// TestResetReplaysIdentically checks the Reset half of the determinism
// contract with the real coin streams: for the same (seed, adversary,
// algorithm), a Reset-recycled System must reproduce the schedule, final
// register contents, and step counts of a fresh System — for every seed in
// a small sweep, interleaved with executions on other seeds that dirty the
// registers in between.
func TestResetReplaysIdentically(t *testing.T) {
	type outcome struct {
		schedule []int
		vals     []shm.Value
		steps    []int
	}
	var sched []int // the running execution's grants
	run := func(sys *System, regs []shm.Register) outcome {
		sched = nil
		res := sys.Run(NewRandomOblivious(123), func(h shm.Handle) {
			for i := 0; i < 6; i++ {
				slot := h.Intn(len(regs))
				v := h.Read(regs[slot])
				if h.Coin(0.5) {
					h.Write(regs[slot], v+shm.Value(h.ID()+1))
				} else {
					h.Write(regs[slot], v-1)
				}
			}
		})
		out := outcome{schedule: sched, steps: res.Steps}
		for _, r := range regs {
			out.vals = append(out.vals, sys.Value(r.RegisterID()))
		}
		return out
	}

	fresh := func(seed int64) outcome {
		sys := NewSystem(Config{N: 6, Seed: seed, StepHook: recordSchedule(&sched)})
		regs := shm.NewRegisterArray(sys, 4, 7)
		return run(sys, regs)
	}

	pooled := NewSystem(Config{N: 6, Seed: 0, Reuse: true, StepHook: recordSchedule(&sched)})
	defer pooled.Release()
	pregs := shm.NewRegisterArray(pooled, 4, 7)

	for _, seed := range []int64{1, 2, 3, 1, 99, 1} { // repeats must replay too
		want := fresh(seed)
		pooled.Reset(seed)
		got := run(pooled, pregs)
		if len(want.schedule) == 0 {
			t.Fatalf("seed %d: no steps recorded", seed)
		}
		for i := range want.schedule {
			if got.schedule[i] != want.schedule[i] {
				t.Fatalf("seed %d: schedules diverge at step %d: fresh %d, reset %d",
					seed, i, want.schedule[i], got.schedule[i])
			}
		}
		for i := range want.vals {
			if got.vals[i] != want.vals[i] {
				t.Errorf("seed %d: register %d: fresh %d, reset %d", seed, i, want.vals[i], got.vals[i])
			}
		}
		for pid := range want.steps {
			if got.steps[pid] != want.steps[pid] {
				t.Errorf("seed %d: process %d steps: fresh %d, reset %d",
					seed, pid, want.steps[pid], got.steps[pid])
			}
		}
	}
}

// TestResetRestoresState checks the bookkeeping Reset promises: initial
// register values (including non-zero ones), visibility, counters, and
// liveness flags.
func TestResetRestoresState(t *testing.T) {
	sys := NewSystem(Config{N: 2, Seed: 1, Reuse: true})
	defer sys.Release()
	r := sys.NewRegister(5)
	q := sys.NewRegister(-3)
	sys.Run(NewRoundRobin(), func(h shm.Handle) {
		h.Write(r, shm.Value(h.ID())+10)
		_ = h.Read(q)
		h.Intn(4)
	})
	sys.Reset(1)
	if got := sys.Value(r.RegisterID()); got != 5 {
		t.Errorf("register r = %d after Reset, want 5", got)
	}
	if got := sys.Value(q.RegisterID()); got != -3 {
		t.Errorf("register q = %d after Reset, want -3", got)
	}
	if got := sys.LastWriter(r.RegisterID()); got != -1 {
		t.Errorf("last writer = %d after Reset, want -1", got)
	}
	if sys.TouchedRegisters() != 0 {
		t.Errorf("touched = %d after Reset, want 0", sys.TouchedRegisters())
	}
	if sys.Time() != 0 || sys.StepsOf(0) != 0 || sys.StepsOf(1) != 0 || sys.CoinsOf(0) != 0 {
		t.Errorf("counters not cleared: time=%d steps=%d,%d coins=%d", sys.Time(), sys.StepsOf(0), sys.StepsOf(1), sys.CoinsOf(0))
	}
	if sys.Finished(0) || sys.Parked(0) {
		t.Error("process liveness not cleared by Reset")
	}
	if sys.RegisterCount() != 2 {
		t.Errorf("RegisterCount = %d after Reset, want 2 (registers survive)", sys.RegisterCount())
	}
}

// TestReuseAfterKill checks that executions ended by kills — including a
// full Close of parked processes — recycle cleanly into the next trial.
func TestReuseAfterKill(t *testing.T) {
	sys := NewSystem(Config{N: 3, Seed: 1, Reuse: true})
	defer sys.Release()
	r := sys.NewRegister(0)
	body := func(h shm.Handle) {
		for i := 0; i < 50; i++ {
			h.Write(r, shm.Value(i))
		}
	}
	for trial := 0; trial < 3; trial++ {
		sys.Reset(int64(trial))
		sys.Start(body)
		sys.Step(0)
		sys.Kill(0) // explicit kill mid-run
		sys.Close() // kills the remaining parked processes
		if sys.StepsOf(0) != 1 {
			t.Fatalf("trial %d: killed process has %d steps, want 1", trial, sys.StepsOf(0))
		}
	}
	// A final complete run must still work after all that unwinding.
	sys.Reset(7)
	res := sys.Run(NewRoundRobin(), body)
	for pid, ok := range res.Finished {
		if !ok {
			t.Errorf("process %d did not finish after kill-heavy reuse", pid)
		}
	}
}

// TestReleaseLifecycle checks Release ends the pooled coroutines and
// fences off further use.
func TestReleaseLifecycle(t *testing.T) {
	base := runtime.NumGoroutine()
	sys := NewSystem(Config{N: 2, Seed: 1, Reuse: true})
	r := sys.NewRegister(0)
	sys.Run(NewRoundRobin(), func(h shm.Handle) { h.Write(r, 1) })
	if n := runtime.NumGoroutine(); n != base+2 {
		t.Errorf("%d goroutines between executions, want %d parked coroutines over the baseline %d", n, 2, base)
	}
	sys.Release()
	sys.Release() // idempotent
	if n := runtime.NumGoroutine(); n != base {
		t.Errorf("%d goroutines after Release, want the baseline %d", n, base)
	}
	defer func() {
		if recover() == nil {
			t.Error("Start after Release did not panic")
		}
	}()
	sys.Start(func(h shm.Handle) {})
}

// TestOnRelease: a Reuse System runs its OnRelease functions once, at
// Release; without Reuse they run at every Close of a started execution,
// Release's included. Either way the parked processes are crashed first.
func TestOnRelease(t *testing.T) {
	for _, reuse := range []bool{true, false} {
		sys := NewSystem(Config{N: 2, Seed: 1, Reuse: reuse})
		r := sys.NewRegister(0)
		calls, parkedAtCall := 0, false
		sys.OnRelease(func() {
			calls++
			parkedAtCall = parkedAtCall || sys.Parked(0) || sys.Parked(1)
		})
		body := func(h shm.Handle) { h.Write(r, 1) }
		sys.Run(NewRoundRobin(), body)
		sys.Reset(2)
		sys.Start(body) // both parked on their write
		sys.Reset(3)
		sys.Start(body)
		want := 2 // the two Closes
		if reuse {
			want = 0
		}
		if calls != want {
			t.Errorf("reuse=%v: %d calls before Release, want %d", reuse, calls, want)
		}
		sys.Release()
		sys.Release()
		want++ // Reuse: Release; otherwise Release's Close of the third execution
		if calls != want || parkedAtCall {
			t.Errorf("reuse=%v: %d calls after Release (want %d), a process parked at a call: %v", reuse, calls, want, parkedAtCall)
		}
	}
}

// TestStepCounting checks that exactly the shared-memory operations are
// counted as steps and coins are free.
func TestStepCounting(t *testing.T) {
	sys := NewSystem(Config{N: 3, Seed: 1})
	r := sys.NewRegister(0)
	res := sys.Run(NewRoundRobin(), func(h shm.Handle) {
		h.Intn(10) // free
		h.Write(r, 1)
		h.Coin(0.5) // free
		_ = h.Read(r)
	})
	for pid, s := range res.Steps {
		if s != 2 {
			t.Errorf("process %d took %d steps, want 2", pid, s)
		}
	}
	if res.TotalSteps != 6 {
		t.Errorf("total steps = %d, want 6", res.TotalSteps)
	}
	if res.MaxSteps != 2 {
		t.Errorf("max steps = %d, want 2", res.MaxSteps)
	}
}

// TestAtomicity drives two processes through a read-modify-write race and
// checks the register semantics are those of atomic reads and writes (lost
// update is possible, torn state is not), under an explicit schedule.
func TestAtomicity(t *testing.T) {
	sys := NewSystem(Config{N: 2, Seed: 1})
	r := sys.NewRegister(0)
	// Schedule: both read (seeing 0), then both write 1+0.
	res := sys.Run(NewFixedSchedule([]int{0, 1, 0, 1}), func(h shm.Handle) {
		v := h.Read(r)
		h.Write(r, v+1)
	})
	if got := sys.Value(r.RegisterID()); got != 1 {
		t.Errorf("lost-update schedule produced %d, want 1", got)
	}
	if !res.Finished[0] || !res.Finished[1] {
		t.Error("processes did not finish")
	}
}

// TestLastWriterSees exercises the visibility bookkeeping the Section 5
// lower-bound machinery depends on: a read step sees the register's last
// writer, as RunCovering observes it from its StepHook.
func TestLastWriterSees(t *testing.T) {
	var seen [][2]int
	var sys *System
	sys = NewSystem(Config{N: 2, Seed: 1, StepHook: func(ev StepEvent) {
		if w := sys.LastWriter(ev.Reg); ev.Kind == OpRead && w >= 0 {
			seen = append(seen, [2]int{ev.PID, w})
		}
	}})
	r := sys.NewRegister(0)
	if sys.LastWriter(r.RegisterID()) != -1 {
		t.Fatal("fresh register should have no visible process")
	}
	sys.Run(NewFixedSchedule([]int{0, 1, 1}), func(h shm.Handle) {
		if h.ID() == 0 {
			h.Write(r, 7)
			return
		}
		_ = h.Read(r) // first read: before p0 writes? schedule puts p0 first
		_ = h.Read(r)
	})
	if got := sys.LastWriter(r.RegisterID()); got != 0 {
		t.Errorf("last writer = %d, want 0", got)
	}
	if len(seen) != 2 {
		t.Fatalf("see events = %v, want two events", seen)
	}
	for _, ev := range seen {
		if ev != [2]int{1, 0} {
			t.Errorf("see event = %v, want [1 0]", ev)
		}
	}
}

// TestPendingVisibility checks each adversary class sees exactly what the
// paper's definitions allow: the pending step's kind, register and value,
// and the past steps (step counts and register contents) that every class
// but the oblivious one observes.
func TestPendingVisibility(t *testing.T) {
	sys := NewSystem(Config{N: 1, Seed: 1})
	r0 := sys.NewRegister(0)
	r1 := sys.NewRegister(0)
	sys.Start(func(h shm.Handle) {
		h.Write(r0, 5)
		h.Write(r1, 9)
	})
	defer sys.Close()
	sys.Step(0) // past: r0 = 5; pending: the write of 9 to r1

	cases := []struct {
		vis       Visibility
		wantKind  OpKind
		wantReg   int
		wantVal   bool
		wantSteps int
		wantPast  bool // register contents visible
	}{
		{VisibilityOblivious, OpUnknown, -1, false, 0, false},
		{VisibilityLocation, OpWrite, -1, true, 1, true},
		{VisibilityRW, OpUnknown, 1, false, 1, true},
		{VisibilityAdaptive, OpWrite, 1, true, 1, true},
	}
	for _, tc := range cases {
		v := View{sys: sys, vis: tc.vis}
		if got := v.Steps(0); got != tc.wantSteps {
			t.Errorf("%v: steps = %d, want %d", tc.vis, got, tc.wantSteps)
		}
		wantR0 := shm.Value(0)
		if tc.wantPast {
			wantR0 = 5
		}
		if got, ok := v.RegisterValue(r0.RegisterID()); got != wantR0 || ok != tc.wantPast {
			t.Errorf("%v: r0 = (%d, %v), want (%d, %v)", tc.vis, got, ok, wantR0, tc.wantPast)
		}
		if got := v.PendingKind(0); got != tc.wantKind {
			t.Errorf("%v: kind = %v, want %v", tc.vis, got, tc.wantKind)
		}
		if got := v.PendingReg(0); got != tc.wantReg {
			t.Errorf("%v: reg = %v, want %v", tc.vis, got, tc.wantReg)
		}
		if _, ok := v.PendingVal(0); ok != tc.wantVal {
			t.Errorf("%v: val visible = %v, want %v", tc.vis, ok, tc.wantVal)
		}
	}
}

// TestKillUnblocksProcesses ensures crashed processes unwind their bodies
// and take no further steps.
func TestKillUnblocksProcesses(t *testing.T) {
	sys := NewSystem(Config{N: 4, Seed: 1})
	r := sys.NewRegister(0)
	finished := make([]bool, 4)
	sys.Start(func(h shm.Handle) {
		for i := 0; i < 100; i++ {
			h.Write(r, shm.Value(i))
		}
		finished[h.ID()] = true
	})
	sys.Step(0)
	sys.Kill(0)
	if sys.Parked(0) {
		t.Error("killed process still parked")
	}
	sys.Close()
	for pid, f := range finished {
		if f {
			t.Errorf("process %d finished despite kill/close", pid)
		}
	}
	if sys.StepsOf(0) != 1 {
		t.Errorf("killed process has %d steps, want 1", sys.StepsOf(0))
	}
}

// TestAdversaryStopsEarly checks Run's crash semantics when the adversary
// returns a negative pid.
func TestAdversaryStopsEarly(t *testing.T) {
	sys := NewSystem(Config{N: 2, Seed: 1})
	r := sys.NewRegister(0)
	steps := 0
	adv := &Func{Vis: VisibilityAdaptive, Pick: func(v View) int {
		if steps >= 3 {
			return -1
		}
		steps++
		return 0
	}}
	res := sys.Run(adv, func(h shm.Handle) {
		for i := 0; i < 10; i++ {
			h.Write(r, 1)
		}
	})
	if res.Finished[0] || res.Finished[1] {
		t.Error("no process should have finished")
	}
	if res.Steps[0] != 3 || res.Steps[1] != 0 {
		t.Errorf("steps = %v, want [3 0]", res.Steps)
	}
}

// TestRoundRobinFairness verifies every process finishes under round-robin.
func TestRoundRobinFairness(t *testing.T) {
	sys := NewSystem(Config{N: 5, Seed: 3})
	r := sys.NewRegister(0)
	res := sys.Run(NewRoundRobin(), func(h shm.Handle) {
		for i := 0; i < h.ID()+1; i++ { // uneven lengths
			h.Write(r, shm.Value(h.ID()))
		}
	})
	for pid, ok := range res.Finished {
		if !ok {
			t.Errorf("process %d did not finish", pid)
		}
		if res.Steps[pid] != pid+1 {
			t.Errorf("process %d: steps = %d, want %d", pid, res.Steps[pid], pid+1)
		}
	}
}

// TestRegisterAccounting checks space bookkeeping.
func TestRegisterAccounting(t *testing.T) {
	sys := NewSystem(Config{N: 1, Seed: 1})
	regs := shm.NewRegisterArray(sys, 10, 0)
	if sys.RegisterCount() != 10 {
		t.Fatalf("allocated = %d, want 10", sys.RegisterCount())
	}
	sys.Run(NewRoundRobin(), func(h shm.Handle) {
		h.Write(regs[3], 1)
		_ = h.Read(regs[7])
	})
	if got := sys.TouchedRegisters(); got != 2 {
		t.Errorf("touched = %d, want 2", got)
	}
}

// TestRegisterSlabs builds a System of 33,000 registers: registers come
// from slabs, so its allocations grow with the slab count, not the
// register count, and across slab boundaries ids run 0…n−1 in allocation
// order while Value, LastWriter and RegisterCount report what was
// allocated, then written, then restored by Reset.
func TestRegisterSlabs(t *testing.T) {
	const n = 33_000
	slabs := slabDoubles + (n-slabSmall+slabMax-1)/slabMax
	build := func(regs int) {
		sys := NewSystem(Config{N: 1, Seed: 1})
		for i := 0; i < regs; i++ {
			sys.NewRegister(shm.Value(i))
		}
	}
	empty := testing.AllocsPerRun(3, func() { build(0) })
	full := testing.AllocsPerRun(3, func() { build(n) })
	// One allocation per slab, plus the slab index's growth.
	if extra := full - empty; extra > float64(2*slabs) {
		t.Errorf("%d registers in %d slabs cost %.0f allocations, want at most %d", n, slabs, extra, 2*slabs)
	}

	sys := NewSystem(Config{N: 1, Seed: 1, Reuse: true})
	defer sys.Release()
	regs := make([]shm.Register, n)
	for i := range regs {
		regs[i] = sys.NewRegister(shm.Value(3*i + 1))
		if id := regs[i].RegisterID(); id != i {
			t.Fatalf("register %d has id %d", i, id)
		}
	}
	if got := sys.RegisterCount(); got != n {
		t.Fatalf("RegisterCount = %d, want %d", got, n)
	}
	wrote := make([]bool, n) // the registers on both sides of each slab boundary
	for i, start := 0, 0; start < n; i++ {
		wrote[start] = true
		if start > 0 {
			wrote[start-1] = true
		}
		start += min(slabMin<<min(i, slabDoubles), slabMax)
	}
	wrote[n-1] = true
	check := func(when string, written []bool) {
		t.Helper()
		for i := 0; i < n; i++ {
			val, writer := shm.Value(3*i+1), -1
			if written != nil && written[i] {
				val, writer = -shm.Value(i), 0
			}
			if got := sys.Value(i); got != val {
				t.Fatalf("%s: Value(%d) = %d, want %d", when, i, got, val)
			}
			if got := sys.LastWriter(i); got != writer {
				t.Fatalf("%s: LastWriter(%d) = %d, want %d", when, i, got, writer)
			}
		}
	}
	check("allocated", nil)
	sys.Run(NewRoundRobin(), func(h shm.Handle) {
		for i, w := range wrote {
			if w {
				h.Write(regs[i], -shm.Value(i))
			}
		}
	})
	check("written", wrote)
	sys.Reset(1)
	check("reset", nil)
	if got := sys.RegisterCount(); got != n {
		t.Errorf("RegisterCount = %d after Reset, want %d", got, n)
	}
}

// TestFixedScheduleSkipsFinished ensures replaying a schedule with stale
// entries skips them rather than deadlocking.
func TestFixedScheduleSkipsFinished(t *testing.T) {
	sys := NewSystem(Config{N: 2, Seed: 1})
	r := sys.NewRegister(0)
	res := sys.Run(NewFixedSchedule([]int{0, 0, 0, 0, 1}), func(h shm.Handle) {
		h.Write(r, 1)
	})
	if !res.Finished[0] || !res.Finished[1] {
		t.Errorf("finished = %v, want both", res.Finished)
	}
}

// TestStepHookTrace checks the trace hook sees every step in order.
func TestStepHookTrace(t *testing.T) {
	var events []StepEvent
	sys := NewSystem(Config{N: 2, Seed: 1, StepHook: func(ev StepEvent) {
		events = append(events, ev)
	}})
	r := sys.NewRegister(5)
	sys.Run(NewFixedSchedule([]int{0, 1}), func(h shm.Handle) {
		if h.ID() == 0 {
			h.Write(r, 9)
		} else {
			_ = h.Read(r)
		}
	})
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	if events[0].Kind != OpWrite || events[0].Val != 9 {
		t.Errorf("event 0 = %+v, want write 9", events[0])
	}
	if events[1].Kind != OpRead || events[1].Val != 9 {
		t.Errorf("event 1 = %+v, want read 9", events[1])
	}
	if events[0].Time != 0 || events[1].Time != 1 {
		t.Errorf("timestamps wrong: %+v", events)
	}
}

// TestForeignRegisterPanics: a process steps only its own System's
// registers. A write to another System's register panics from the call
// that ran the process to it, and leaves that register untouched.
func TestForeignRegisterPanics(t *testing.T) {
	a := NewSystem(Config{N: 1, Seed: 1})
	foreign := a.NewRegister(0)
	b := NewSystem(Config{N: 1, Seed: 1})
	b.NewRegister(0) // the same id as foreign: only ownership tells them apart
	got := func() (v any) {
		defer func() { v = recover() }()
		b.Start(func(h shm.Handle) { h.Write(foreign, 9) })
		b.Step(0)
		return nil
	}()
	if got == nil {
		t.Fatal("a process of one System wrote another System's register without a panic")
	}
	if a.Value(0) != 0 || a.LastWriter(0) != -1 {
		t.Fatalf("the foreign register holds %d, last written by %d; want 0 and -1", a.Value(0), a.LastWriter(0))
	}
}

// TestBodyPanicSurfaces checks that a panic in a process body, other than
// the kill sentinel, surfaces from the scheduler call that resumed the
// process — Start for code before the first step, Step after a grant,
// Kill and Close for code a kill unwinds through — and ends only that
// process.
func TestBodyPanicSurfaces(t *testing.T) {
	type boom struct{}
	panicOnUnwind := func(h shm.Handle, r shm.Register) {
		defer func() { panic(boom{}) }()
		h.Write(r, 1)
	}
	for _, tc := range []struct {
		name string
		body func(h shm.Handle, r shm.Register)
		run  func(sys *System)
	}{
		{"Start", func(h shm.Handle, r shm.Register) { panic(boom{}) }, func(sys *System) {}},
		{"Step", func(h shm.Handle, r shm.Register) {
			h.Write(r, 1)
			panic(boom{})
		}, func(sys *System) { sys.Step(0) }},
		{"Kill", panicOnUnwind, func(sys *System) { sys.Kill(0) }},
		{"Close", panicOnUnwind, func(sys *System) { sys.Close() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := NewSystem(Config{N: 1, Seed: 1})
			r := sys.NewRegister(0)
			got := func() (v any) {
				defer func() { v = recover() }()
				sys.Start(func(h shm.Handle) { tc.body(h, r) })
				tc.run(sys)
				return nil
			}()
			if got != (boom{}) {
				t.Fatalf("recovered %v from %s, want the body's panic", got, tc.name)
			}
			if sys.Parked(0) || sys.Finished(0) {
				t.Errorf("process is parked=%v finished=%v after its body panicked", sys.Parked(0), sys.Finished(0))
			}
		})
	}
}
