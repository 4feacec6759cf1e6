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

import (
	"repro/internal/concurrent"
	"repro/internal/shm"
)

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

	// Cached at construction for TASFastAbortable: the concrete done
	// register (concurrent backend only) and le itself when it is the
	// doorway.
	doneC *concurrent.Register
	fp    *FastPath
}

// New builds a TAS object from le, allocating its done register on s.
func New(s shm.Space, le LeaderElector) *TAS {
	t := &TAS{le: le, done: s.NewRegister(0)}
	t.doneC, _ = t.done.(*concurrent.Register)
	t.fp, _ = le.(*FastPath)
	return t
}

// TAS sets the bit and returns its previous value (0 for the unique
// winner, 1 for everyone else). Each process calls TAS at most once.
func (t *TAS) TAS(h shm.Handle) int {
	if h.Read(t.done) == 1 {
		return 1
	}
	if t.le.Elect(h) {
		return 0
	}
	h.Write(t.done, 1)
	return 1
}

// TASFastAbortable is TAS specialized for the concurrent backend over
// the doorway (a FastPath elector): the same transformation — done-read,
// elect, possible done-write — with the done register and the doorway
// devirtualized, plus an abort protocol. With no abort set it is
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
// internal/arena). Off the concurrent backend or without the doorway
// underneath, the call falls back to running TAS to completion
// (aborted == false).
func (t *TAS) TASFastAbortable(h *concurrent.Handle) (v int, aborted bool) {
	if t.doneC == nil || t.fp == nil {
		return t.TAS(h), false
	}
	if h.Aborting() {
		return 1, true
	}
	if h.ReadReg(t.doneC) == 1 {
		return 1, false
	}
	won, ab := t.fp.ElectFastAbortable(h)
	if won {
		return 0, false
	}
	if ab {
		return 1, true
	}
	h.WriteReg(t.doneC, 1)
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
