package tas

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/concurrent"
	"repro/internal/shm"
	"repro/internal/sim"
)

// TestFastPathOneWinner: the doorway-wrapped election keeps the
// exactly-one-winner property across schedules on the simulator, for
// every inner elector.
func TestFastPathOneWinner(t *testing.T) {
	const n = 16
	for name, mk := range electorFactories(n) {
		for _, k := range []int{1, 2, 7, 16} {
			for seed := int64(0); seed < 20; seed++ {
				sys := sim.NewSystem(sim.Config{N: k, Seed: seed})
				le := NewFastPath(sys, mk(sys))
				winners := 0
				res := sys.Run(sim.NewRandomOblivious(seed+31), func(h shm.Handle) {
					if le.Elect(h) {
						winners++
					}
				})
				for pid, ok := range res.Finished {
					if !ok {
						t.Fatalf("%s: process %d unfinished", name, pid)
					}
				}
				if winners != 1 {
					t.Fatalf("%s k=%d seed=%d: %d winners, want 1", name, k, seed, winners)
				}
			}
		}
	}
}

// TestFastPathSoloSteps: the whole point of the doorway — a solo caller
// wins a doorway-wrapped TAS in O(1) steps regardless of the inner
// election's depth: done-read (1) + splitter (4) + two-process final
// (expected 2, more only on coin ties that cannot happen solo).
func TestFastPathSoloSteps(t *testing.T) {
	s := concurrent.NewSpace()
	obj := New(s, NewFastPath(s, logStarBuilder(s, 1024)))
	s.Seal()
	h := concurrent.NewHandle(0, 7)
	if got, _ := obj.TASAbortable(h); got != 0 {
		t.Fatalf("solo TASAbortable = %d, want 0", got)
	}
	if h.Steps() > 8 {
		t.Errorf("solo doorway TAS took %d steps, want ≤ 8 (inner n=1024 election bypassed)", h.Steps())
	}
}

// TestFastPathConcurrentBackend drives the doorway from real goroutines:
// exactly one winner per trial, with the abortable entry (no abort set)
// and the plain TAS mixed to prove they are interchangeable.
func TestFastPathConcurrentBackend(t *testing.T) {
	const k = 8
	for trial := 0; trial < 50; trial++ {
		s := concurrent.NewSpace()
		obj := New(s, NewFastPath(s, logStarBuilder(s, k)))
		s.Seal()
		var wg sync.WaitGroup
		var zeros int32
		for i := 0; i < k; i++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				h := concurrent.NewHandle(id, int64(trial*k+id)+1)
				var r int
				if id%2 == 0 {
					r, _ = obj.TASAbortable(h)
				} else {
					r = obj.TAS(h)
				}
				if r == 0 {
					atomic.AddInt32(&zeros, 1)
				}
			}(i)
		}
		wg.Wait()
		if zeros != 1 {
			t.Fatalf("trial %d: %d winners, want 1", trial, zeros)
		}
	}
}
