package dstrun

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/dst"
)

// runOnce fails the test on setup errors and returns the report.
func runOnce(t *testing.T, cfg Config) Report {
	t.Helper()
	rep, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run(%+v): %v", cfg, err)
	}
	return rep
}

// assertPassed fails with the report's own diagnostics.
func assertPassed(t *testing.T, rep Report) {
	t.Helper()
	if rep.Failed() {
		t.Fatalf("seed %#x scenario %s failed (replay with the same seed):\nviolations=%d\nerrors=%q",
			rep.Seed, rep.Scenario, rep.Violations, rep.Errors)
	}
}

func TestScenarioSmoke(t *testing.T) {
	for _, sc := range Scenarios {
		t.Run(string(sc), func(t *testing.T) {
			t.Parallel()
			rep := runOnce(t, Config{Seed: 1, Scenario: sc})
			assertPassed(t, rep)
			if rep.Events == 0 {
				t.Fatal("no events simulated")
			}
			switch sc {
			case ScenarioElect:
				if rep.Elections == 0 {
					t.Fatal("elect scenario ran no elections")
				}
			case ScenarioFuzz:
				if rep.FuzzFrames == 0 {
					t.Fatal("fuzz scenario sent no frames")
				}
				if rep.Acquires == 0 {
					t.Fatal("service unavailable during fuzzing: probe client acquired nothing")
				}
			case ScenarioAbortStorm:
				if rep.Cancels == 0 || rep.Hangups == 0 {
					t.Fatalf("storm fired no cancellations/hangups: %+v", rep)
				}
				if rep.Aborts == 0 {
					t.Fatalf("storm drove no elector aborts: %+v", rep)
				}
			case ScenarioOverload:
				if rep.Shed == 0 || rep.Goodput == 0 {
					t.Fatalf("overload scenario neither shed nor granted: %+v", rep)
				}
			default:
				if rep.Acquires == 0 || rep.Releases == 0 {
					t.Fatalf("no lock traffic: %+v", rep)
				}
			}
		})
	}
}

// TestUnknownScenario: a misspelled scenario name is a setup error, not
// a silent run of the default scenario.
func TestUnknownScenario(t *testing.T) {
	rep, err := Run(Config{Seed: 1, Scenario: "lokcs"})
	if err == nil {
		t.Fatalf("Run accepted scenario %q and ran %d events", "lokcs", rep.Events)
	}
}

// fakeIncarnation is a lock incarnation whose retirement the test sets.
type fakeIncarnation struct{ retired bool }

func (f *fakeIncarnation) Retired() bool { return f.retired }

// TestTokenWatermarkPerName: fencing tokens are keyed by the lock
// incarnation serving the name. A drop within one incarnation fails; a
// fresh incarnation restarts the sequence silently only once the old
// one is retired; and another name's eviction excuses nothing.
func TestTokenWatermarkPerName(t *testing.T) {
	m := newMonitor(1, ScenarioLocks)
	wantErrors := func(n int, what string) {
		t.Helper()
		if len(m.Errors) != n {
			t.Fatalf("%s: errors %q, want %d", what, m.Errors, n)
		}
	}
	lock0, lock1 := &fakeIncarnation{}, &fakeIncarnation{}
	m.fence("lock0", lock0, 5)
	m.fence("lock0", lock0, 3)
	wantErrors(1, "lock0 went 5 -> 3 within one incarnation")

	m.fence("lock1", lock1, 7)
	lock1.retired = true
	m.fence("lock1", &fakeIncarnation{}, 1)
	wantErrors(1, "lock1 restarted at 1 after its old incarnation retired")

	eph0, eph1 := &fakeIncarnation{}, &fakeIncarnation{}
	m.fence("eph0", eph0, 2)
	m.fence("eph0", eph1, 9)
	wantErrors(2, "eph0 got a new incarnation while the old one is live")

	lock2 := &fakeIncarnation{}
	m.fence("lock2", lock2, 5)
	eph1.retired = true
	m.fence("eph0", &fakeIncarnation{}, 1)
	m.fence("lock2", lock2, 4)
	wantErrors(3, "lock2 went 5 -> 4 while only eph0 was evicted")
}

// TestNoWallClockWait: under the virtual clock a blocked ACQUIRE waits
// on virtual time alone. Every blocking event of the run is profiled,
// and none in MutexProc.LockWhile's wait between rounds may block
// anywhere but in a SimClock park. The election itself is left out (its
// combiner fibers hand steps between goroutines), and so are mutex
// handoffs between the scheduler's goroutines. A wall-clock park shows
// up as a count, however fast or slow the host is.
func TestNoWallClockWait(t *testing.T) {
	runtime.SetBlockProfileRate(1)
	rep := runOnce(t, Config{Seed: 1, Scenario: ScenarioAbortStorm})
	runtime.SetBlockProfileRate(0)
	assertPassed(t, rep)
	n, _ := runtime.BlockProfile(nil)
	recs := make([]runtime.BlockProfileRecord, n+64)
	n, _ = runtime.BlockProfile(recs)
	var wall int64
	for _, rec := range recs[:n] {
		var waiting, electing, virtual bool
		frames := runtime.CallersFrames(rec.Stack())
		for more := true; more; {
			var f runtime.Frame
			f, more = frames.Next()
			switch fn := f.Function; {
			case strings.HasSuffix(fn, "arena.(*MutexProc).LockWhile"):
				waiting = true
			case strings.HasSuffix(fn, "arena.(*MutexProc).tryRound"):
				electing = true
			case strings.HasSuffix(fn, "dst.(*SimClock).parkLocked"), strings.HasPrefix(fn, "sync.(*Mutex)"):
				virtual = true
			}
		}
		if waiting && !electing && !virtual {
			wall += rec.Count
		}
	}
	if wall > 0 {
		t.Fatalf("%d blocking event(s) in MutexProc.LockWhile's wait were not virtual-clock parks", wall)
	}
}

// TestReplayDeterminism is the seed→schedule contract end to end: a
// whole service run replays byte-identically from its seed, across
// -cpu settings (run with -cpu=1,4).
func TestReplayDeterminism(t *testing.T) {
	for _, sc := range []Scenario{ScenarioLocks, ScenarioChaos, ScenarioMixed, ScenarioAbortStorm, ScenarioOverload} {
		t.Run(string(sc), func(t *testing.T) {
			t.Parallel()
			a := runOnce(t, Config{Seed: 42, Scenario: sc})
			b := runOnce(t, Config{Seed: 42, Scenario: sc})
			if flatten(a) != flatten(b) {
				t.Fatalf("same seed diverged:\n  run1: %s\n  run2: %s", flatten(a), flatten(b))
			}
			c := runOnce(t, Config{Seed: 43, Scenario: sc})
			if c.TraceHash == a.TraceHash && c.Events == a.Events {
				t.Fatalf("different seeds produced the identical schedule (hash %#x, %d events)", a.TraceHash, a.Events)
			}
		})
	}
}

// flatten renders a report (including its slices) into one comparable
// string, so replay equality covers every field.
func flatten(r Report) string { return fmt.Sprintf("%+v", r) }

// TestSeedCorpus is the regression corpus: seeds that exercise the
// lease-expiry-vs-release and disconnect-vs-retirement races (every
// lockClient branch fires across these) must keep all invariants.
func TestSeedCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus run in -short mode")
	}
	seeds := []uint64{1, 2, 3, 5, 8, 13, 21, 0xdead, 0xbeef, 0xc0ffee, 1 << 32, 0xffffffffffffffff}
	for _, seed := range seeds {
		t.Run("", func(t *testing.T) {
			t.Parallel()
			assertPassed(t, runOnce(t, Config{Seed: seed, Scenario: ScenarioMixed, Ops: 30}))
		})
	}
}

// TestFaultyFabric turns on every byte-level fault at once. Strict
// expectations are off (corruption can forge frames); the unconditional
// invariants — exclusion, token monotonicity, lease bounds, one leader
// per epoch, clean drain — must still hold.
func TestFaultyFabric(t *testing.T) {
	for _, seed := range []uint64{7, 11, 99} {
		t.Run("", func(t *testing.T) {
			t.Parallel()
			rep := runOnce(t, Config{
				Seed:     seed,
				Scenario: ScenarioChaos,
				Ops:      25,
				Faults: dst.Faults{
					DelayMin:     20 * time.Microsecond,
					DelayMax:     800 * time.Microsecond,
					ConnectDelay: 100 * time.Microsecond,
					DropProb:     0.02,
					DupProb:      0.02,
					CorruptProb:  0.02,
					ResetProb:    0.005,
				},
			})
			assertPassed(t, rep)
		})
	}
}

// TestAbortStorm drives the abort storm across several seeds and
// asserts the no-residue contract directly: slot population back at
// baseline, client-side cancellation latency within its armed deadline,
// and the storm actually exercising every departure flavor.
func TestAbortStorm(t *testing.T) {
	for _, seed := range []uint64{1, 4, 17, 0xab047} {
		t.Run("", func(t *testing.T) {
			t.Parallel()
			rep := runOnce(t, Config{Seed: seed, Scenario: ScenarioAbortStorm, Ops: 30})
			assertPassed(t, rep)
			if rep.Cancels == 0 || rep.Hangups == 0 || rep.Aborts == 0 {
				t.Fatalf("storm too quiet: %+v", rep)
			}
			mutexCount := int64(2) // lock0, lock1 stay live (eviction is off)
			if rep.SlotsOutstanding != mutexCount {
				t.Fatalf("post-storm slot population %d, want %d (one per live mutex)", rep.SlotsOutstanding, mutexCount)
			}
			if rep.CancelLatencyMax == 0 {
				t.Fatal("no cancellation latency recorded")
			}
		})
	}
}

// TestAbortStormFaultyFabric reruns the storm with byte-level faults on
// top: strict expectations disarm, but the unconditional invariants
// (exclusion, monotone tokens, slot accounting, clean drain) must hold.
func TestAbortStormFaultyFabric(t *testing.T) {
	for _, seed := range []uint64{7, 23} {
		t.Run("", func(t *testing.T) {
			t.Parallel()
			rep := runOnce(t, Config{
				Seed:     seed,
				Scenario: ScenarioAbortStorm,
				Ops:      25,
				Faults: dst.Faults{
					DelayMin:     20 * time.Microsecond,
					DelayMax:     800 * time.Microsecond,
					ConnectDelay: 100 * time.Microsecond,
					DropProb:     0.02,
					DupProb:      0.02,
					ResetProb:    0.005,
				},
			})
			assertPassed(t, rep)
		})
	}
}

// TestOverload drives the overload scenario across several seeds and
// asserts graceful degradation directly: the admission bounds held (a
// breach lands in Errors via the continuous check), the server both
// shed and granted, propagated deadlines were enforced server-side, the
// non-draining client was evicted, and the arena's slot population
// returned to baseline — shed requests never keep a slot.
func TestOverload(t *testing.T) {
	for _, seed := range []uint64{1, 4, 17, 0x10ad} {
		t.Run("", func(t *testing.T) {
			t.Parallel()
			rep := runOnce(t, Config{Seed: seed, Scenario: ScenarioOverload})
			assertPassed(t, rep)
			if rep.Shed == 0 {
				t.Fatalf("admission control never engaged: %+v", rep)
			}
			if rep.DeadlineExpired == 0 {
				t.Fatalf("no propagated deadline was enforced server-side: %+v", rep)
			}
			if rep.SlowClientEvictions == 0 {
				t.Fatalf("the non-draining client survived: %+v", rep)
			}
			if rep.Goodput == 0 {
				t.Fatalf("zero goodput under overload: %+v", rep)
			}
			if rep.QueueDepthHighWater != overloadMaxWaiters {
				t.Fatalf("queue high-water %d, want the scenario to saturate its bound %d",
					rep.QueueDepthHighWater, overloadMaxWaiters)
			}
			// lock names load0, load1, lslow0 stay live (eviction off).
			if rep.SlotsOutstanding != 3 {
				t.Fatalf("post-flood slot population %d, want 3 (one per live mutex)", rep.SlotsOutstanding)
			}
		})
	}
}

// TestOverloadFaultyFabric reruns the flood with byte-level faults on
// top: strict expectations disarm, but the unconditional invariants —
// exclusion, admission bounds, slot accounting, in-flight quiescence,
// clean drain — must hold.
func TestOverloadFaultyFabric(t *testing.T) {
	for _, seed := range []uint64{7, 23} {
		t.Run("", func(t *testing.T) {
			t.Parallel()
			rep := runOnce(t, Config{
				Seed:     seed,
				Scenario: ScenarioOverload,
				Ops:      25,
				Faults: dst.Faults{
					DelayMin:     20 * time.Microsecond,
					DelayMax:     800 * time.Microsecond,
					ConnectDelay: 100 * time.Microsecond,
					DropProb:     0.02,
					DupProb:      0.02,
					ResetProb:    0.005,
				},
			})
			assertPassed(t, rep)
		})
	}
}

// TestLeaseExpiryObserved asserts the scenario actually exercises the
// sweeper: with lock traffic at these TTLs some lease must expire and
// some extension must land.
func TestLeaseExpiryObserved(t *testing.T) {
	rep := runOnce(t, Config{Seed: 9, Scenario: ScenarioLocks, Ops: 60})
	assertPassed(t, rep)
	if rep.Expiries == 0 {
		t.Fatal("no lease ever expired: the expiry races are not being exercised")
	}
	if rep.Extends == 0 {
		t.Fatal("no lease was ever extended")
	}
	if rep.Evictions == 0 {
		t.Fatal("no eviction fired")
	}
}
