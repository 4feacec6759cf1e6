// Abort-protocol tests at the TAS layer: an abort is a loss that must
// not brand the round — the aborter skips the done-write, so a round
// every participant abandons stays winnable for whoever comes later.
// The abortable chain runs raced on goroutines and under the
// simulator's named adversaries.
package tas

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/concurrent"
	"repro/internal/core"
	"repro/internal/shm"
	"repro/internal/sim"
)

func newAbortableTAS(n int) *TAS {
	s := concurrent.NewSpace()
	return New(s, NewFastPath(s, core.NewLogStar(s, n)))
}

// TestTASAbortLeavesRoundWinnable is the heart of the abort-as-loss
// semantics: an aborter returns 1 without writing done, so a later solo
// caller still wins the object, and only a genuine loser flips the bit.
func TestTASAbortLeavesRoundWinnable(t *testing.T) {
	obj := newAbortableTAS(4)

	h0 := concurrent.NewHandle(0, 1)
	h0.Abort()
	if v, aborted := obj.TASAbortable(h0); v != 1 || !aborted {
		t.Fatalf("aborted TAS = (%d, %v), want (1, true)", v, aborted)
	}
	if h0.Steps() != 0 {
		t.Fatalf("pre-entry abort cost %d steps, want 0", h0.Steps())
	}
	if got := obj.Read(h0); got != 0 {
		t.Fatal("aborter branded the object: done bit set with no winner")
	}

	// The round was not consumed: a later caller without an abort wins.
	h1 := concurrent.NewHandle(1, 2)
	if v, aborted := obj.TASAbortable(h1); v != 0 || aborted {
		t.Fatalf("post-abort solo TAS = (%d, %v), want (0, false)", v, aborted)
	}

	// And a genuine loser behaves as ever: loses, writes done.
	h2 := concurrent.NewHandle(2, 3)
	if v, aborted := obj.TASAbortable(h2); v != 1 || aborted {
		t.Fatalf("late loser TAS = (%d, %v), want (1, false)", v, aborted)
	}
	if got := obj.Read(h2); got != 1 {
		t.Fatal("done bit clear after a genuine loser finished")
	}
}

// TestTASAbortableFallback: without the doorway underneath, the call
// must run to completion and never report aborted — the abort flag is
// simply not observable at this layer.
func TestTASAbortableFallback(t *testing.T) {
	s := concurrent.NewSpace()
	obj := New(s, core.NewLogStar(s, 2)) // no doorway: no abort protocol
	h := concurrent.NewHandle(0, 1)
	h.Abort()
	v, aborted := obj.TASAbortable(h)
	if aborted {
		t.Fatal("fallback path reported aborted")
	}
	if v != 0 {
		t.Fatalf("solo fallback TAS = %d, want 0 (ran to completion)", v)
	}
}

// TestTASAbortWinRace hammers the abortable doorway from many
// goroutines while aborts land mid-election. Whatever the interleaving:
// at most one caller receives 0; an aborted return is always a loss; and
// when no call observed an abort, exactly one winner exists (winnerless
// outcomes are only legal with a departure in the history).
func TestTASAbortWinRace(t *testing.T) {
	const n = 6
	for trial := 0; trial < 200; trial++ {
		obj := newAbortableTAS(n)
		var vs [n]int
		var aborteds [n]bool
		handles := make([]*concurrent.Handle, n)
		for i := range handles {
			handles[i] = concurrent.NewHandle(i, int64(trial*n+i)+1)
		}
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				vs[id], aborteds[id] = obj.TASAbortable(handles[id])
			}(i)
		}
		// Abort a trial-dependent subset while the elections run.
		for i := 0; i < n; i++ {
			if (trial+i)%3 != 0 {
				handles[i].Abort()
			}
		}
		wg.Wait()
		zeros, aborted := 0, 0
		for i := 0; i < n; i++ {
			if vs[i] == 0 {
				zeros++
				if aborteds[i] {
					t.Fatalf("trial %d: caller %d returned 0 yet aborted", trial, i)
				}
			}
			if aborteds[i] {
				aborted++
			}
		}
		if zeros > 1 {
			t.Fatalf("trial %d: %d winners (aborted %v)", trial, zeros, aborteds)
		}
		if aborted == 0 && zeros != 1 {
			t.Fatalf("trial %d: no abort observed yet %d winners, want exactly 1", trial, zeros)
		}
	}
}

// TestTASAbortableUnderAdversaries runs the abortable chain, TASAbortable
// over FastPath over log* at k = 8, in the simulator under the adaptive
// lockstep adversary and under 50 random-oblivious schedules. In each
// run the step hook raises the abort flag of a chosen set of processes
// mid-run — none, every third, or all of them — each after a
// pid-dependent number of its own steps. Whatever the schedule:
//
//   - at most one call returns 0, and exactly one when no call aborted;
//   - an aborted call never returns 0, and its process never writes the
//     done register;
//   - every process finishes.
func TestTASAbortableUnderAdversaries(t *testing.T) {
	const k = 8
	adversaries := []struct {
		name string
		mk   func(seed int64) sim.Adversary
	}{
		{"lockstep", func(int64) sim.Adversary { return sim.NewLockstep() }},
		{"random-oblivious", func(seed int64) sim.Adversary { return sim.NewRandomOblivious(seed ^ 0x5eed) }},
	}
	patterns := []struct {
		name  string
		abort func(seed int64, pid int) bool
	}{
		{"none", func(int64, int) bool { return false }},
		{"third", func(seed int64, pid int) bool { return (int64(pid)+seed)%3 == 0 }},
		{"all", func(int64, int) bool { return true }},
	}
	for _, adv := range adversaries {
		for _, pat := range patterns {
			t.Run(adv.name+"/"+pat.name, func(t *testing.T) {
				for seed := int64(0); seed < 50; seed++ {
					checkAbortableRun(t, k, seed, adv.mk(seed), pat.abort)
				}
			})
		}
	}
}

// checkAbortableRun runs one simulated execution of the abortable chain
// and checks it (see TestTASAbortableUnderAdversaries).
func checkAbortableRun(t *testing.T, k int, seed int64, adv sim.Adversary, abort func(seed int64, pid int) bool) {
	t.Helper()
	var (
		sys       *sim.System
		obj       *TAS
		hs        = make([]shm.Handle, k)
		vs        = make([]int, k)
		aborted   = make([]bool, k)
		wroteDone = make([]bool, k)
	)
	sys = sim.NewSystem(sim.Config{N: k, Seed: seed, StepHook: func(ev sim.StepEvent) {
		if ev.Kind == sim.OpWrite && ev.Reg == obj.done.RegisterID() {
			wroteDone[ev.PID] = true
		}
		// Abort after the process's (1 + (seed+pid) mod 9)-th step:
		// in the splitter, the final or the inner election.
		if abort(seed, ev.PID) && sys.StepsOf(ev.PID) == 1+int((seed+int64(ev.PID))%9) {
			hs[ev.PID].Abort()
		}
	}})
	obj = New(sys, NewFastPath(sys, core.NewLogStar(sys, k)))
	res := sys.Run(adv, func(h shm.Handle) {
		hs[h.ID()] = h
		vs[h.ID()], aborted[h.ID()] = obj.TASAbortable(h)
	})
	ctx := fmt.Sprintf("seed %d", seed)
	zeros, aborts := 0, 0
	for pid := 0; pid < k; pid++ {
		if !res.Finished[pid] {
			t.Fatalf("%s: process %d did not finish", ctx, pid)
		}
		if vs[pid] == 0 {
			zeros++
		}
		if aborted[pid] {
			aborts++
			if vs[pid] == 0 {
				t.Fatalf("%s: process %d returned 0 from an aborted call", ctx, pid)
			}
			if wroteDone[pid] {
				t.Fatalf("%s: aborted process %d wrote the done register", ctx, pid)
			}
		}
	}
	if zeros > 1 {
		t.Fatalf("%s: %d calls returned 0 (aborted %v)", ctx, zeros, aborted)
	}
	if aborts == 0 && zeros != 1 {
		t.Fatalf("%s: no call aborted yet %d returned 0, want 1", ctx, zeros)
	}
}
