// Abort-protocol tests for the two-process election's abortable entry
// raced on the real backend: the departure protocol must never mint a
// second winner, whatever interleaving an abort lands in. The twoproc
// package checks the same protocol under every n = 2 schedule.
package concurrent_test

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/concurrent"
	"repro/internal/twoproc"
)

// TestTwoProcAbortBeforeEntry: an abort observed before the first raise
// costs zero steps, and the other slot then runs solo and wins.
func TestTwoProcAbortBeforeEntry(t *testing.T) {
	s := concurrent.NewSpace()
	le := twoproc.New(s)
	h0 := concurrent.NewHandle(0, 1)
	h0.Abort()
	won, aborted := le.ElectAbortable(h0, 0)
	if won || !aborted {
		t.Fatalf("pre-aborted elect = (%v, %v), want (false, true)", won, aborted)
	}
	if h0.Steps() != 0 {
		t.Fatalf("pre-entry abort cost %d steps, want 0", h0.Steps())
	}
	h1 := concurrent.NewHandle(1, 2)
	won, aborted = le.ElectAbortable(h1, 1)
	if !won || aborted {
		t.Fatalf("solo elect after peer aborted = (%v, %v), want (true, false)", won, aborted)
	}
}

// TestTwoProcAbortFreeIdentical: with the flag never set, both slots
// running the abortable entry keep the exactly-one-winner property and
// neither reports an abort — it is the plain protocol on the same
// registers.
func TestTwoProcAbortFreeIdentical(t *testing.T) {
	for trial := 0; trial < 200; trial++ {
		s := concurrent.NewSpace()
		le := twoproc.New(s)
		var won, aborted [2]bool
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				h := concurrent.NewHandle(id, int64(trial*2+id)+1)
				won[id], aborted[id] = le.ElectAbortable(h, id)
			}(i)
		}
		wg.Wait()
		if aborted[0] || aborted[1] {
			t.Fatalf("trial %d: aborted %v with no abort set", trial, aborted)
		}
		if won[0] == won[1] {
			t.Fatalf("trial %d: outcomes %v, want exactly one winner", trial, won)
		}
	}
}

// TestTwoProcAbortWinRace races an abort against a live peer's decision.
// The safety ladder, per the departure protocol:
//
//   - never two winners, abort or no abort;
//   - a call that reports aborted did not win;
//   - if neither call observed the abort, the execution is identical to
//     Elect and elects exactly one winner;
//   - a winnerless outcome is legal only when some call aborted (the
//     peer's deciding read may have caught the departing flag still up).
func TestTwoProcAbortWinRace(t *testing.T) {
	for trial := 0; trial < 400; trial++ {
		s := concurrent.NewSpace()
		le := twoproc.New(s)
		handles := [2]*concurrent.Handle{
			concurrent.NewHandle(0, int64(trial)*2+1),
			concurrent.NewHandle(1, int64(trial)*2+2),
		}
		var won, aborted [2]bool
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				won[id], aborted[id] = le.ElectAbortable(handles[id], id)
			}(i)
		}
		// Vary where the abort lands relative to the race: immediately,
		// after a yield, or on both slots at once.
		switch trial % 3 {
		case 0:
			handles[0].Abort()
		case 1:
			runtime.Gosched()
			handles[0].Abort()
		case 2:
			handles[0].Abort()
			handles[1].Abort()
		}
		wg.Wait()
		if won[0] && won[1] {
			t.Fatalf("trial %d: two winners (aborted %v)", trial, aborted)
		}
		for id := 0; id < 2; id++ {
			if won[id] && aborted[id] {
				t.Fatalf("trial %d: slot %d both won and aborted", trial, id)
			}
		}
		if !aborted[0] && !aborted[1] && won[0] == won[1] {
			t.Fatalf("trial %d: no abort observed yet outcomes %v — winnerless without departure", trial, won)
		}
	}
}

// TestTwoProcAbortedDeparterUnblocksPeer: once the aborter has departed,
// the surviving slot must decide — the departure write (flag down) is
// what keeps the peer's spin loop from waiting on a ghost.
func TestTwoProcAbortedDeparterUnblocksPeer(t *testing.T) {
	for trial := 0; trial < 100; trial++ {
		s := concurrent.NewSpace()
		le := twoproc.New(s)
		h0 := concurrent.NewHandle(0, int64(trial)+1)
		h1 := concurrent.NewHandle(1, int64(trial)+101)
		done := make(chan struct{})
		go func() {
			defer close(done)
			// The peer runs with no abort of its own; it must terminate.
			le.ElectAbortable(h1, 1)
		}()
		h0.Abort()
		if won, aborted := le.ElectAbortable(h0, 0); won || !aborted {
			t.Fatalf("trial %d: aborted slot = (%v, %v)", trial, won, aborted)
		}
		<-done // hangs here if departure failed to unblock the peer
	}
}
