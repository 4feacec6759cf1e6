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
// with fibers: each constituent algorithm runs against its own
// *concurrent.Handle, the repository's one handle type, whose scheduler
// is the fiber. A fiber's Read or Write becomes an event the combiner
// serves on the real process handle, one side at a time, so step
// accounting (and the simulator's adversary views) remain exact. Local
// coins come from the fiber handle's own splitmix64 stream, seeded from
// the process's coins before the fibers start, preserving determinism
// in the simulator.
//
// A fiber has two transports behind one interface (first event, reply,
// stop), so the three rules are one loop:
//
//   - On a simulator (a Combined built on a sim.System, which runs one
//     process body at a time) each fiber is an iter.Pull coroutine of
//     its process, and a relayed step is one coroutine switch each way.
//     A process's two coroutines outlive an election but not their
//     System: between elections they park, keyed by process id, and the
//     next Elect reseeds them; stopping one unwinds its pending election
//     and parks it again. The System ends them when it lets go of its
//     processes (sim.System.OnRelease: at Release on a Reuse System, at
//     Close otherwise), so a Reuse System running a Combined holds two
//     more goroutines per process between executions.
//   - On a production handle each fiber is a goroutine relaying its
//     steps over channels, started per election and ended with it. Its
//     goroutine runs near the end of its initial stack, so the relay's
//     frame is kept small (see goFiber.Step). Coroutine fibers here would
//     make contended rounds of the arena's Mutex lose more often and
//     raise its tail latency.
//
// Both transports carry the same steps in the same order, so an
// execution does not depend on which one ran it.
package combiner

import (
	"iter"

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
	top twoproc.LE
	// sim is set when the Combined lives on a simulator; parked then
	// holds each process's coroutine fibers between its elections,
	// indexed by process id (see Fibers in the package doc).
	sim    bool
	parked []*procFibers
}

// releaser is a Space that ends what its processes keep between
// executions: sim.System, which this package cannot import (the
// simulator's tests run Combined).
type releaser interface {
	OnRelease(f func())
}

// New combines RatRace rr with weak-adversary algorithm alg, allocating
// the LE_top registers on s. Its space is that of rr plus alg plus O(1).
// On a simulator the Combined keeps its fibers until s ends them.
func New(s shm.Space, rr AdaptiveElector, alg WeakElector) *Combined {
	c := &Combined{rr: rr, alg: alg, top: twoproc.Make(s)}
	if r, ok := s.(releaser); ok {
		c.sim = true
		r.OnRelease(c.endFibers)
	}
	return c
}

// Elect runs the combined election; true iff the caller wins.
func (c *Combined) Elect(h shm.Handle) bool {
	// Fiber coin streams are seeded from the process's coins *before*
	// the fibers start, so simulator executions stay deterministic.
	seedRR := int64(h.Intn(1<<30))<<31 | int64(h.Intn(1<<30))
	seedA := int64(h.Intn(1<<30))<<31 | int64(h.Intn(1<<30))
	var fRR, fA fiber
	var prog *ratrace.Progress
	if c.sim {
		p := c.fibers(h.ID())
		p.prog = ratrace.Progress{}
		p.rr.Bind(h.ID(), p.rr, uint64(seedRR), nil)
		p.a.Bind(h.ID(), p.a, uint64(seedA), nil)
		fRR, fA, prog = p.rr, p.a, &p.prog
	} else {
		prog = &ratrace.Progress{}
		fRR = startGoFiber(h.ID(), seedRR, func(fh shm.Handle) bool {
			return c.rr.ElectWithProgress(fh, prog)
		})
		fA = startGoFiber(h.ID(), seedA, c.alg.Elect)
	}

	// A stopped execution takes no further step; its fiber is stopped
	// on the way out of Elect, including when an election panics or the
	// process itself crashes inside serve.
	defer func() {
		fRR.stop()
		fA.stop()
	}()
	// Take each fiber's first event; thereafter the combiner always
	// holds the current event of every live fiber, so whenever a rule
	// consults prog the RatRace fiber is parked and its writes are
	// ordered before ours.
	evRR, evA := fRR.first(), fA.first()
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
				evRR = fRR.reply(serve(h, evRR.op))
				if evRR.done {
					return c.settleRR(h, evRR)
				}
			}
		}
		// Both live: alternate, RatRace on odd steps, A on even.
		if rrTurn {
			evRR = fRR.reply(serve(h, evRR.op))
		} else {
			evA = fA.reply(serve(h, evA.op))
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

// serve executes one relayed shared-memory operation on the real handle
// and returns the fiber's answer: the value read, or 0 for a write.
func serve(h shm.Handle, op *fiberOp) shm.Value {
	if op.write {
		h.Write(op.reg, op.val)
		return 0
	}
	return h.Read(op.reg)
}

// --- fiber machinery --------------------------------------------------------

// fiber is one constituent election running as a logical thread of its
// process. Its shared-memory steps surface as events for the combiner
// to serve.
type fiber interface {
	// first runs the fiber to its first step or its end.
	first() fiberEvent
	// reply answers the pending step with v and runs the fiber to its
	// next step or its end.
	reply(v shm.Value) fiberEvent
	// stop ends a fiber that has not finished; it takes no further
	// step. Stopping a finished fiber does nothing.
	stop()
}

type fiberKilled struct{}

func (fiberKilled) Error() string { return "combiner: fiber killed" }

// fiberOp is a fiber's pending step.
type fiberOp struct {
	write bool
	reg   shm.Register
	val   shm.Value
}

// fiberEvent is a fiber's current event: its pending step, or its end.
type fiberEvent struct {
	op     *fiberOp
	done   bool
	result bool // elect outcome when done and not killed
}

// procFibers is one simulated process's two coroutine fibers, parked
// between its elections, and the RatRace progress Rule 3 reads.
type procFibers struct {
	rr, a *coFiber
	prog  ratrace.Progress
}

// fibers returns process id's parked fibers, replacing any whose last
// election panicked.
func (c *Combined) fibers(id int) *procFibers {
	for len(c.parked) <= id {
		c.parked = append(c.parked, nil)
	}
	p := c.parked[id]
	if p == nil {
		p = &procFibers{}
		c.parked[id] = p
	}
	if p.rr == nil || !p.rr.live {
		p.rr = newCoFiber(func(fh shm.Handle) bool {
			return c.rr.ElectWithProgress(fh, &p.prog)
		})
	}
	if p.a == nil || !p.a.live {
		p.a = newCoFiber(c.alg.Elect)
	}
	return p
}

// endFibers ends every parked fiber; the simulator calls it when it lets
// go of its processes. A later Elect starts fresh fibers.
func (c *Combined) endFibers() {
	for _, p := range c.parked {
		if p != nil {
			p.rr.end()
			p.a.end()
		}
	}
	clear(c.parked)
}

// coFiber is a fiber run as an iter.Pull coroutine of its process: the
// transport on a simulator. The coroutine runs one election per pass
// and parks between them; Elect rebinds the handle, reseeding it, before
// each. The handle is embedded, so one allocation holds it and the
// relay state.
type coFiber struct {
	concurrent.Handle
	run   func(h shm.Handle) bool
	next  func() (fiberEvent, bool)
	end   func()
	yield func(fiberEvent) bool
	op    fiberOp
	grant shm.Value // the answer to op
	busy  bool      // an election has started and not ended
	kill  bool      // set while stop unwinds the pending election
	live  bool      // false once an election panicked, ending the coroutine
}

func newCoFiber(run func(h shm.Handle) bool) *coFiber {
	f := &coFiber{run: run, live: true}
	f.next, f.end = iter.Pull(f.body)
	return f
}

// body is the coroutine: it runs one election, yields its end and parks
// until the next election starts or the fiber is ended.
func (f *coFiber) body(yield func(fiberEvent) bool) {
	f.yield = yield
	for yield(fiberEvent{done: true, result: f.elect()}) {
	}
}

// elect runs one election. Stopping it unwinds its pending step with
// fiberKilled, which ends it with no result; any other panic ends the
// coroutine and surfaces from the call that resumed it.
func (f *coFiber) elect() (won bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(fiberKilled); !ok {
				panic(r)
			}
		}
	}()
	return f.run(&f.Handle)
}

// Step implements concurrent.Scheduler: it yields the step to the
// combiner and returns the value the combiner replies with.
func (f *coFiber) Step(r shm.Register, write bool, v shm.Value) shm.Value {
	f.op.write, f.op.reg, f.op.val = write, r, v
	if !f.yield(fiberEvent{op: &f.op}) || f.kill {
		panic(fiberKilled{})
	}
	return f.grant
}

func (f *coFiber) first() fiberEvent {
	f.busy = true
	return f.resume()
}

func (f *coFiber) reply(v shm.Value) fiberEvent {
	f.grant = v
	return f.resume()
}

func (f *coFiber) resume() fiberEvent {
	ev, _ := f.next()
	f.busy = !ev.done
	return ev
}

// stop unwinds a pending election and leaves the fiber parked for the
// next one. If the election panicked, the coroutine has ended: next
// reports it, and the fiber is marked dead for the combiner to replace.
func (f *coFiber) stop() {
	if !f.busy {
		return
	}
	f.busy, f.kill = false, true
	_, f.live = f.next()
	f.kill = false
}

// goFiber is a fiber on its own goroutine, relaying its steps over
// channels: the transport for production handles. The handle is
// embedded, so one allocation holds it and the relay state.
type goFiber struct {
	concurrent.Handle
	ops  chan fiberEvent
	resp chan shm.Value
	kill chan struct{}
	op   fiberOp // reused for every step
	done bool    // the combiner has received the fiber's end
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
func (f *goFiber) Step(r shm.Register, write bool, v shm.Value) shm.Value {
	f.op.write, f.op.reg, f.op.val = write, r, v
	select {
	case f.ops <- fiberEvent{op: &f.op}:
	case <-f.kill:
		panic(fiberKilled{})
	}
	select {
	case v := <-f.resp:
		return v
	case <-f.kill:
		panic(fiberKilled{})
	}
}

// startGoFiber launches run against a goroutine fiber's handle.
func startGoFiber(id int, seed int64, run func(h shm.Handle) bool) fiber {
	f := &goFiber{ops: make(chan fiberEvent), resp: make(chan shm.Value), kill: make(chan struct{})}
	f.Bind(id, f, uint64(seed), nil)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(fiberKilled); ok {
					f.ops <- fiberEvent{done: true}
					return
				}
				panic(r)
			}
		}()
		res := run(&f.Handle)
		f.ops <- fiberEvent{done: true, result: res}
	}()
	return f
}

func (f *goFiber) first() fiberEvent { return f.recv() }

func (f *goFiber) reply(v shm.Value) fiberEvent {
	f.resp <- v
	return f.recv()
}

func (f *goFiber) recv() fiberEvent {
	ev := <-f.ops
	f.done = ev.done
	return ev
}

// stop kills the fiber and waits for its goroutine to unwind, so no
// goroutine outlives Elect.
func (f *goFiber) stop() {
	if f.done {
		return
	}
	close(f.kill)
	for !f.recv().done {
	}
}
