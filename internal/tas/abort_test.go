// Abort-protocol tests at the TAS layer: an abort is a loss that must
// not brand the round — the aborter skips the done-write, so a round
// every participant abandons stays winnable for whoever comes later.
package tas

import (
	"sync"
	"testing"

	"repro/internal/concurrent"
	"repro/internal/core"
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
	if v, aborted := obj.TASFastAbortable(h0); v != 1 || !aborted {
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
	if v, aborted := obj.TASFastAbortable(h1); v != 0 || aborted {
		t.Fatalf("post-abort solo TAS = (%d, %v), want (0, false)", v, aborted)
	}

	// And a genuine loser behaves as ever: loses, writes done.
	h2 := concurrent.NewHandle(2, 3)
	if v, aborted := obj.TASFastAbortable(h2); v != 1 || aborted {
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
	v, aborted := obj.TASFastAbortable(h)
	if aborted {
		t.Fatal("fallback path reported aborted")
	}
	if v != 0 {
		t.Fatalf("solo fallback TAS = %d, want 0 (ran to completion)", v)
	}
}

// TestTASAbortWinRace hammers the abortable fast path from many
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
				vs[id], aborteds[id] = obj.TASFastAbortable(handles[id])
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
