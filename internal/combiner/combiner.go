// Package combiner implements the adversary-independence construction of
// Section 4 (Theorem 4.1): given any leader election A designed for a weak
// (location- or R/W-oblivious) adversary, combine it with RatRace so that
// the result keeps A's step complexity against the weak adversary while
// also achieving RatRace's O(log k) against the adaptive adversary.
//
// Each process runs both algorithms interleaved — a RatRace step on odd
// steps, an A step on even steps — and the outcomes are reconciled by the
// paper's three rules through a final two-process election LE_top:
//
//	Rule 1: winning either execution stops the other and proceeds to
//	        LE_top (RatRace's winner as one contender, A's as the other);
//	        winning LE_top wins the combined election.
//	Rule 2: losing RatRace stops A and loses.
//	Rule 3: losing A stops RatRace and loses — unless the process has
//	        already won some splitter inside RatRace, in which case it
//	        continues RatRace alone (this is what prevents the
//	        cross-execution deadlock described in the paper).
//
// # Fibers
//
// The interleaving needs two logical threads of one process, each blocked
// on its own next shared-memory operation. The package implements this
// with fibers: each constituent algorithm runs in a goroutine against its
// own *concurrent.Handle, the repository's one handle type, whose
// scheduler is the fiber. Its Read/Write calls are relayed over channels
// to the combiner, which forwards them to the real process handle, one
// per side alternately, so step accounting (and the simulator's adversary
// views) remain exact. Local coins come from the fiber handle's own
// splitmix64 stream, seeded from the process's coins before the fibers
// start, preserving determinism in the simulator. A fiber's goroutine
// runs near the end of its initial stack, so the relay's frame is kept
// small (see fiberHandle.Step).
package combiner

import (
	"repro/internal/concurrent"
	"repro/internal/ratrace"
	"repro/internal/shm"
	"repro/internal/twoproc"
)

// AdaptiveElector is the RatRace side of the combination: a leader
// election that reports splitter progress (Rule 3 needs it). Both
// ratrace.Original and ratrace.SpaceEfficient implement it.
type AdaptiveElector interface {
	ElectWithProgress(h shm.Handle, prog *ratrace.Progress) bool
}

// WeakElector is the algorithm A of Theorem 4.1, designed for a weak
// adversary (for example core.NewLogStar or core.NewAdaptiveSifting).
type WeakElector interface {
	Elect(h shm.Handle) bool
}

// Combined is the Theorem 4.1 leader election.
type Combined struct {
	rr  AdaptiveElector
	alg WeakElector
	top *twoproc.LE
}

// New combines RatRace rr with weak-adversary algorithm alg, allocating
// the LE_top registers on s. Its space is that of rr plus alg plus O(1).
func New(s shm.Space, rr AdaptiveElector, alg WeakElector) *Combined {
	return &Combined{rr: rr, alg: alg, top: twoproc.New(s)}
}

// Elect runs the combined election; true iff the caller wins.
func (c *Combined) Elect(h shm.Handle) bool {
	prog := &ratrace.Progress{}
	// Fiber coin streams are seeded from the process's coins *before*
	// the fibers start, so simulator executions stay deterministic.
	seedRR := int64(h.Intn(1<<30))<<31 | int64(h.Intn(1<<30))
	seedA := int64(h.Intn(1<<30))<<31 | int64(h.Intn(1<<30))
	fRR := startFiber(h.ID(), seedRR, func(fh shm.Handle) bool {
		return c.rr.ElectWithProgress(fh, prog)
	})
	fA := startFiber(h.ID(), seedA, func(fh shm.Handle) bool {
		return c.alg.Elect(fh)
	})

	// Pre-receive each fiber's first event; thereafter the combiner
	// always holds the current event of every live fiber, so whenever a
	// rule consults prog the RatRace fiber is parked and its writes are
	// ordered before ours by the channel handshake. A stopped execution
	// takes no further step; its fiber is killed on the way out of Elect,
	// including when the process itself crashes inside serve.
	evRR, evA := <-fRR.ops, <-fA.ops
	defer func() {
		killFiber(fRR, &evRR)
		killFiber(fA, &evA)
	}()
	rrTurn := true // odd steps belong to RatRace

	for {
		// Settle finished executions before taking further steps.
		if evRR.done {
			return c.settleRR(h, evRR)
		}
		if evA.done {
			if done, won := c.settleA(h, evA, prog); done {
				return won
			}
			// Rule 3 else-branch: the process already won a splitter
			// inside RatRace and continues RatRace alone.
			for {
				serve(h, evRR.op)
				evRR = <-fRR.ops
				if evRR.done {
					return c.settleRR(h, evRR)
				}
			}
		}
		// Both live: alternate, RatRace on odd steps, A on even.
		if rrTurn {
			serve(h, evRR.op)
			evRR = <-fRR.ops
		} else {
			serve(h, evA.op)
			evA = <-fA.ops
		}
		rrTurn = !rrTurn
	}
}

// settleRR applies Rules 1 and 2 when the RatRace fiber finishes.
func (c *Combined) settleRR(h shm.Handle, ev fiberEvent) bool {
	if ev.result {
		return c.top.Elect(h, 0) // Rule 1: RatRace winner contends at LE_top
	}
	return false // Rule 2
}

// settleA applies Rules 1 and 3 when the A fiber finishes. done=false
// means Rule 3's else-branch: the process keeps running RatRace alone.
func (c *Combined) settleA(h shm.Handle, ev fiberEvent, prog *ratrace.Progress) (done, won bool) {
	if ev.result {
		return true, c.top.Elect(h, 1) // Rule 1: A's winner contends at LE_top
	}
	if !prog.WonSplitter {
		return true, false // Rule 3, no splitter won: lose
	}
	return false, false // Rule 3: continue RatRace alone
}

// serve executes one relayed shared-memory operation on the real handle.
func serve(h shm.Handle, op *fiberOp) {
	if op.isWrite {
		h.Write(op.reg, op.val)
		op.resp <- 0
		return
	}
	op.resp <- h.Read(op.reg)
}

// --- fiber machinery --------------------------------------------------------

type fiberKilled struct{}

func (fiberKilled) Error() string { return "combiner: fiber killed" }

type fiberOp struct {
	isWrite bool
	reg     shm.Register
	val     shm.Value
	resp    chan shm.Value
}

// fiberEvent is what a fiber sends the combiner: its next op, or its
// end.
type fiberEvent struct {
	op     *fiberOp
	done   bool
	result bool // elect outcome when done and not killed
}

// fiberHandle is a fiber's scheduled handle: its steps relay to the
// combiner over ops, and its coins come from its own splitmix64 stream.
// The handle is embedded, so one allocation holds it and the relay
// state.
type fiberHandle struct {
	concurrent.Handle
	ops  chan fiberEvent
	kill chan struct{}
	op   fiberOp // reused; resp channel allocated once
}

// Step implements concurrent.Scheduler: it hands the step to the
// combiner and waits for the value.
//
// A fiber's goroutine runs close to the end of its initial stack, and
// this frame is the deepest on the fiber path (body → elector →
// Handle.Read/Write → Step). Assigning op's fields in place, rather
// than building a fiberOp literal, keeps the frame small enough that a
// new fiber does not grow its stack: a copied stack costs more than the
// steps themselves.
func (fh *fiberHandle) Step(r shm.Register, write bool, v shm.Value) shm.Value {
	fh.op.isWrite, fh.op.reg, fh.op.val = write, r, v
	select {
	case fh.ops <- fiberEvent{op: &fh.op}:
	case <-fh.kill:
		panic(fiberKilled{})
	}
	select {
	case v := <-fh.op.resp:
		return v
	case <-fh.kill:
		panic(fiberKilled{})
	}
}

// startFiber launches run against a fiber handle.
func startFiber(id int, seed int64, run func(h shm.Handle) bool) *fiberHandle {
	fh := &fiberHandle{ops: make(chan fiberEvent), kill: make(chan struct{}), op: fiberOp{resp: make(chan shm.Value)}}
	fh.Bind(id, fh, uint64(seed), nil)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(fiberKilled); ok {
					fh.ops <- fiberEvent{done: true}
					return
				}
				panic(r)
			}
		}()
		res := run(&fh.Handle)
		fh.ops <- fiberEvent{done: true, result: res}
	}()
	return fh
}

// killFiber aborts fiber f, if its current event *ev is still an op, and
// waits for its goroutine to unwind, so no goroutines outlive Elect.
func killFiber(f *fiberHandle, ev *fiberEvent) {
	if ev.done {
		return
	}
	close(f.kill)
	for !ev.done {
		*ev = <-f.ops
	}
}
