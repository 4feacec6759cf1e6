// Package tas implements linearizable Test-And-Set from leader election,
// the transformation of Golab, Hendler and Woelfel [11] cited in the
// paper's preliminaries: a TAS() call costs at most one elect() call plus
// one read and possibly one write of a single shared "done" register.
//
// A TAS object stores a bit, initially 0; TAS() sets it and returns the
// previous value. Equivalently, the unique caller that receives 0 is the
// winner. The transformation:
//
//	TAS():
//	    if done.Read() == 1 { return 1 }
//	    if le.Elect()       { return 0 }
//	    done.Write(1); return 1
//
// Linearizability sketch: the winner is the unique elect() winner. Any
// caller returning 1 either lost the election (so the winner's call is
// concurrent or earlier) or read done == 1, which some loser wrote after
// the election already had a winner. Ordering the winner's operation
// before all losers' yields a valid sequential TAS history; the early
// return keeps completed losers from racing ahead of a winner that has
// not linearized yet.
package tas

import "repro/internal/shm"

// LeaderElector is the interface the transformation consumes. All leader
// elections in this repository (core chains, RatRace variants, AGTV
// tournaments, combined algorithms) satisfy it.
type LeaderElector interface {
	// Elect returns true iff the calling process wins. Each process
	// calls Elect at most once.
	Elect(h shm.Handle) bool
}

// TAS is a one-shot test-and-set object built from a leader election plus
// one register.
type TAS struct {
	le   LeaderElector
	done shm.Register
	fp   *FastPath // le itself when it is the doorway, for TASAbortable
}

// New builds a TAS object from le, allocating its done register on s.
func New(s shm.Space, le LeaderElector) *TAS {
	fp, _ := le.(*FastPath)
	return &TAS{le: le, done: s.NewRegister(0), fp: fp}
}

// TAS sets the bit and returns its previous value (0 for the unique
// winner, 1 for everyone else). Each process calls TAS at most once.
func (t *TAS) TAS(h shm.Handle) int {
	v, _ := t.tas(h, false)
	return v
}

// TASAbortable is TAS over the doorway (a FastPath elector) plus an
// abort protocol: the same transformation — done-read, elect, possible
// done-write — through FastPath.ElectAbortable. With no abort set it is
// observably identical to TAS (same steps, same coins, same
// linearization argument). It returns (v, aborted); aborted is true iff
// the call resolved because of the handle's abort flag, in which case v
// is 1 (an abort is a loss).
//
// Crucially, an aborter does NOT write the done register. A genuine
// loser's done-write is justified by a winner that exists (or is about
// to): bit == 1 always implies a winner in the linearization argument.
// An aborter's loss implies nothing — if every participant aborts, the
// election ends winnerless and writing done would brand a round as
// spent when nobody won it. Leaving done untouched keeps the round
// winnable by later participants; a round that drains with only
// aborters is detected and recycled by the arena's refcount (see
// internal/arena). Without the doorway underneath, the call falls back
// to running TAS to completion (aborted == false).
func (t *TAS) TASAbortable(h shm.Handle) (v int, aborted bool) {
	return t.tas(h, t.fp != nil)
}

// tas is the one body of TAS and TASAbortable; abortable turns on the
// abort polls and elects through the doorway's abortable entry.
func (t *TAS) tas(h shm.Handle, abortable bool) (v int, aborted bool) {
	if abortable && h.Aborting() {
		return 1, true
	}
	if h.Read(t.done) == 1 {
		return 1, false
	}
	var won bool
	if abortable {
		won, aborted = t.fp.ElectAbortable(h)
	} else {
		won = t.le.Elect(h)
	}
	if won {
		return 0, false
	}
	if aborted {
		return 1, true
	}
	h.Write(t.done, 1)
	return 1, false
}

// Read returns the done register's value without setting it (one step):
// 1 once some loser has finished, which implies the winner's TAS already
// happened. A lone winner writes no register, so after it alone Read
// still returns 0; a caller that needs Read linearizable alongside TAS
// must record the win itself.
func (t *TAS) Read(h shm.Handle) int {
	if h.Read(t.done) == 1 {
		return 1
	}
	return 0
}
