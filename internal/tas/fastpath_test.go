package tas

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/agtv"
	"repro/internal/combiner"
	"repro/internal/concurrent"
	"repro/internal/core"
	"repro/internal/ratrace"
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
	if got, _ := obj.TASFastAbortable(h); got != 0 {
		t.Fatalf("solo TASFastAbortable = %d, want 0", got)
	}
	if h.Steps() > 8 {
		t.Errorf("solo doorway TAS took %d steps, want ≤ 8 (inner n=1024 election bypassed)", h.Steps())
	}
}

// TestElectFastMatchesPortable: the doorway's concrete entries and the
// portable path are interchangeable mid-election. Each trial splits real
// goroutines between the concrete entry, with no abort set, and the
// portable one on one shared object — FastPath over each inner elector,
// and TAS over that doorway — so any divergence between the concrete
// loop and the portable path breaks the exactly-one-winner invariant
// here. "fastpath-logstar" keeps one doorway over log* for every trial,
// recycled by Space.Reset between them as an arena slot is.
// TestFastMatchesPortableCostsAcrossZoo in internal/concurrent pins the
// two entries' costs to each other.
func TestElectFastMatchesPortable(t *testing.T) {
	const (
		k      = 8
		trials = 20
	)
	inners := []struct {
		name string
		mk   func(s shm.Space) LeaderElector
	}{
		{"logstar", func(s shm.Space) LeaderElector { return core.NewLogStar(s, k) }},
		{"sifting", func(s shm.Space) LeaderElector { return core.NewSifting(s, k) }},
		{"adaptive-sifting", func(s shm.Space) LeaderElector { return core.NewAdaptiveSifting(s, k) }},
		{"agtv", func(s shm.Space) LeaderElector { return agtv.New(s, k) }},
		{"ratrace", func(s shm.Space) LeaderElector { return ratrace.NewSpaceEfficient(s, k) }},
		{"combined", func(s shm.Space) LeaderElector {
			return combiner.New(s, ratrace.NewSpaceEfficient(s, k), core.NewLogStar(s, k))
		}},
	}
	electFast := func(f *FastPath) func(h *concurrent.Handle) bool {
		return func(h *concurrent.Handle) bool { won, _ := f.ElectFastAbortable(h); return won }
	}
	for _, in := range inners {
		t.Run(in.name, func(t *testing.T) {
			for trial := 0; trial < trials; trial++ {
				s := concurrent.NewSpace()
				f := NewFastPath(s, in.mk(s))
				s.Seal()
				if w := mixedWinners(k, trial, electFast(f), f.Elect); w != 1 {
					t.Fatalf("fastpath trial %d: %d winners, want 1", trial, w)
				}
				s = concurrent.NewSpace()
				obj := New(s, NewFastPath(s, in.mk(s)))
				s.Seal()
				if w := mixedWinners(k, trial,
					func(h *concurrent.Handle) bool { v, _ := obj.TASFastAbortable(h); return v == 0 },
					func(h shm.Handle) bool { return obj.TAS(h) == 0 }); w != 1 {
					t.Fatalf("tas trial %d: %d winners, want 1", trial, w)
				}
			}
		})
	}
	t.Run("fastpath-logstar", func(t *testing.T) {
		s := concurrent.NewSpace()
		f := NewFastPath(s, core.NewLogStar(s, k))
		s.Seal()
		for trial := 0; trial < trials; trial++ {
			if w := mixedWinners(k, trial, electFast(f), f.Elect); w != 1 {
				t.Fatalf("trial %d: %d winners, want 1", trial, w)
			}
			s.Reset()
		}
	})
}

// mixedWinners races k goroutines on one object, even ids through its
// concrete entry and odd ids through its portable one, and returns the
// number of winners.
func mixedWinners(k, trial int, concrete func(h *concurrent.Handle) bool, portable func(h shm.Handle) bool) int32 {
	var winners atomic.Int32
	var wg sync.WaitGroup
	start := make(chan struct{})
	for id := 0; id < k; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			h := concurrent.NewHandle(id, int64(trial*k+id)+1)
			<-start
			var won bool
			if id%2 == 0 {
				won = concrete(h)
			} else {
				won = portable(h)
			}
			if won {
				winners.Add(1)
			}
		}(id)
	}
	close(start)
	wg.Wait()
	return winners.Load()
}

// TestFastPathConcurrentBackend drives the doorway's concrete entry from
// real goroutines: exactly one winner per trial, with the portable and
// concrete entries mixed to prove they are interchangeable.
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
					r, _ = obj.TASFastAbortable(h)
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
