// Package sim is a deterministic simulator for the asynchronous shared-memory
// model of the paper: n processes, atomic multi-reader multi-writer
// registers, and an adversary that decides which process takes the next step.
//
// Each simulated process runs its body as an iter.Pull coroutine executing
// ordinary Go code against the shm abstraction. The body steps through a
// *concurrent.Handle, the repository's one handle type, bound to the
// process as its scheduler (concurrent.Scheduler): every Read or Write
// records the pending operation and yields to the scheduler, which
// resumes the process only when it grants the step, so exactly one process
// body runs at any time and executions are fully deterministic given
// (seed, adversary). This gives exact step counting — the Go runtime
// scheduler never influences results — which is what the paper's
// step-complexity statements require. Coins come from the handle's own
// splitmix64 stream, rooted at the process's seed, and abort flags are
// the handle's too: a StepHook may raise one to run an abortable
// elector's departure under any adversary.
//
// # Process coroutines (engine v2)
//
// The scheduler's Start, Step, Kill and Close resume a process through the
// next function of its iter.Pull pair; the process's Read or Write yields
// back. A coroutine switch is synchronous — the caller stays suspended
// until the process yields or its body ends — so the pending operation,
// the value granted to a read, and the kill flag are plain fields that
// need no synchronization, and all process-body code (including local
// computation) remains serialized exactly as in engine v1. Kill resumes
// the process with its kill flag set, and the pending Read or Write panics
// with a sentinel that unwinds the body. Any other panic in a body ends
// its coroutine and surfaces from the scheduler call that resumed the
// process: Start, Step, Kill or Close.
//
// # Reuse and pooling
//
// A System built with Config.Reuse can be recycled across executions:
// Reset(seed) rewinds registers to their initial values (touched registers
// only — O(steps), not O(space)), clears per-process counters, and reseeds
// the per-process coin streams, while Start resumes the process coroutines
// parked since the previous execution instead of creating fresh ones.
// Monte Carlo drivers keep one System per worker and pay construction once
// per sweep cell instead of once per trial. A Reuse System must be
// Release()d when abandoned, or its parked coroutines (one goroutine each)
// leak; without Reuse the lifecycle is single-shot and Close alone
// reclaims everything.
//
// # Determinism contract and seed mapping
//
// Executions are a pure function of (Config.Seed, adversary, algorithm):
// replaying the same triple — on a fresh System or a Reset one — yields an
// identical step/grant trace. Engine v2 bumps the documented seed→schedule
// mapping: per-process coins now come from inlined splitmix64 streams
// (internal/rng) instead of math/rand generators, so executions are not
// step-for-step comparable with pre-v2 seeds. All statistical claims are
// unaffected; tooling that recorded v1 schedules must re-record.
//
// The simulator also tracks, per register, the last writer ("visibility" in
// the paper's Section 5 terminology) and can report every process's pending
// operation. This is the machinery needed both by the adversary classes of
// Section 1 (adaptive, location-oblivious, R/W-oblivious, oblivious) and by
// the executable space-lower-bound construction of Section 5.
package sim

import (
	"fmt"
	"iter"

	"repro/internal/concurrent"
	"repro/internal/rng"
	"repro/internal/shm"
)

// OpKind identifies the type of a pending or executed shared-memory step.
type OpKind uint8

// Operation kinds. OpUnknown is reported to adversaries whose class hides
// the read/write type of pending operations.
const (
	OpUnknown OpKind = iota
	OpRead
	OpWrite
)

func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	default:
		return "unknown"
	}
}

// procState tracks where a simulated process is in its lifecycle.
type procState uint8

const (
	stateCreated procState = iota // not yet running in this execution
	stateParked                   // published a pending op, awaiting a grant
	stateDone                     // body returned normally
	stateKilled                   // crashed by the scheduler (Kill, Close or adversary stop)
)

// killedError is the sentinel panic value used to unwind a simulated process
// whose execution is being abandoned (a crash in the model's sense).
type killedError struct{}

func (killedError) Error() string { return "sim: process killed" }

type pendingOp struct {
	kind OpKind
	reg  *register
	val  shm.Value
}

type register struct {
	id     int
	val    shm.Value
	init   shm.Value // construction-time value, restored by Reset
	writer int       // pid of last writer; -1 if never written ("no process visible")
	reads  int
	writes int

	// RMR-accounting state, maintained only under Config.CountRMRs (see
	// chargeRMRs). ver is monotone for the life of the System — bumped
	// per write and per Reset of a touched register — so per-process CC
	// cache entries are invalidated across trials without ever scanning
	// the caches.
	ver    int
	shared bool // CC: some non-writer read the line since its last write
	home   int  // DSM: pid of the first accessor, or -1
}

// RegisterID implements shm.Register.
func (r *register) RegisterID() int { return r.id }

// proc is one simulated process: the scheduler of its handle, and the
// coroutine that runs its body.
type proc struct {
	h   concurrent.Handle // bound to the proc; the body steps through &h
	id  int
	sys *System

	// next resumes the coroutine until it parks on a step or its body
	// ends; stop ends a coroutine parked between executions. Both are nil
	// while the process has no coroutine. yield is the coroutine's side.
	next  func() (parked, alive bool)
	stop  func()
	yield func(parked bool) bool

	// Set before the coroutine is resumed: the body to run, and the
	// scheduler's answer to the pending op (the value read, or a kill).
	body  func(h shm.Handle)
	grant shm.Value
	kill  bool

	pending pendingOp // set by the coroutine before it yields
	state   procState
	steps   int
	ccRMRs  int   // remote memory references, cache-coherent model
	dsmRMRs int   // remote memory references, distributed-shared-memory model
	cache   []int // CC cache: register id → write version last read
}

// Step implements concurrent.Scheduler: the handle's Read or Write
// publishes its pending op and parks the process until the scheduler
// grants the step.
func (p *proc) Step(r shm.Register, write bool, v shm.Value) shm.Value {
	p.pending = pendingOp{kind: OpRead, reg: p.sys.mustOwn(r)}
	if write {
		p.pending.kind, p.pending.val = OpWrite, v
	}
	p.yield(true)
	if p.kill {
		panic(killedError{})
	}
	return p.grant
}

// bind (re)binds the proc's handle for an execution with the given
// System seed.
func (p *proc) bind(seed int64) {
	p.h.Bind(p.id, p, procSeed(seed, p.id), p.sys.tape)
}

// run is the process coroutine: it runs the installed body and, on a
// Reuse System, parks between executions until Start resumes it with the
// next body or Release stops it.
func (p *proc) run(yield func(parked bool) bool) {
	p.yield = yield
	for {
		p.runBody()
		if !p.sys.cfg.Reuse || !yield(false) {
			return
		}
	}
}

// runBody executes the process body, converting the kill sentinel into a
// clean exit. Other panics propagate to the scheduler call that resumed
// the process: a bug in algorithm code should crash tests.
func (p *proc) runBody() {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(killedError); !ok {
				panic(r)
			}
		}
	}()
	p.body(&p.h)
}

// StepEvent describes one executed shared-memory step, for tracing.
type StepEvent struct {
	Time int // 0-based global step index
	PID  int
	Kind OpKind
	Reg  int
	Val  shm.Value // value written (OpWrite) or value read (OpRead)
}

// Config parameterizes a System.
type Config struct {
	// N is the number of simulated processes.
	N int
	// Seed determines every local coin flip; two Systems with the same
	// Seed, body, and schedule produce identical executions. See the
	// package comment for the engine v2 seed→schedule mapping bump.
	Seed int64
	// Reuse keeps process coroutines parked between executions so that
	// Reset/Start cycles recycle their stacks instead of creating new ones.
	// A Reuse System must be Release()d when abandoned; without Reuse
	// the System is single-shot and Close reclaims everything.
	Reuse bool
	// RecordSchedule keeps the granted pid sequence for replay (used by
	// the Section 5 lower-bound machinery). Off by default to keep large
	// sweeps cheap.
	RecordSchedule bool
	// StepHook, if non-nil, is invoked after every executed step.
	StepHook func(StepEvent)
	// CoinFunc, if non-nil, overrides the outcome of every Handle.Coin
	// call. It enables exhaustive model checking over coin outcomes
	// (the twoproc safety checker enumerates coin tapes through it).
	CoinFunc func(pid int, prob float64) bool
	// IntnFunc, if non-nil, overrides the outcome of every Handle.Intn
	// call; it must return a value in [0, n).
	IntnFunc func(pid, n int) int
	// SeeHook, if non-nil, is invoked when a read observes a register on
	// which some process is visible (the paper's "p sees q" relation).
	SeeHook func(reader, seen int)
	// CountRMRs enables per-process remote-memory-reference accounting
	// in both the cache-coherent and distributed-shared-memory models
	// (see chargeRMRs for the charging rules; CCRMRsOf/DSMRMRsOf and
	// the Result fields report the totals). Accounting is bookkeeping
	// layered on Step: it never influences scheduling, register values,
	// or coin streams, so the engine-v2 seed→schedule mapping is
	// byte-identical with the flag on or off (golden-trace tested).
	CountRMRs bool
}

// System is one simulated shared-memory machine: a set of registers, a set
// of processes, and the scheduling machinery. A System runs one execution
// at a time; with Config.Reuse it can be Reset and rerun arbitrarily many
// times, recycling registers, coroutines, and per-process state.
type System struct {
	cfg       Config
	registers []*register
	touched   []*register // registers read or written in this execution
	procs     []*proc
	tape      *concurrent.CoinTape // CoinFunc and IntnFunc; nil if neither is set
	schedule  []int
	time      int
	parked    int
	started   bool
	closed    bool
	released  bool
}

var _ shm.Space = (*System)(nil)

// NewSystem creates a simulator for cfg.N processes. Algorithm objects
// should be constructed (allocating registers via the shm.Space interface)
// before Start is called.
func NewSystem(cfg Config) *System {
	if cfg.N <= 0 {
		panic(fmt.Sprintf("sim: invalid process count %d", cfg.N))
	}
	s := &System{cfg: cfg, procs: make([]*proc, cfg.N)}
	if cfg.CoinFunc != nil || cfg.IntnFunc != nil {
		s.tape = &concurrent.CoinTape{Coin: cfg.CoinFunc, Intn: cfg.IntnFunc}
	}
	for i := range s.procs {
		s.procs[i] = &proc{id: i, sys: s}
		s.procs[i].bind(cfg.Seed)
	}
	return s
}

// procSeed decorrelates per-process coin streams derived from one System
// seed. The finalizer must run AFTER the per-process stride is added:
// splitmix64 streams advance their state by the same golden-ratio
// constant per draw, so un-scrambled stride-spaced origins would make
// process p's stream an exact p-draw shift of process 0's.
func procSeed(seed int64, pid int) uint64 {
	g := rng.New(uint64(seed) + uint64(pid)*0x9e3779b97f4a7c15)
	return g.Next()
}

// NewRegister implements shm.Space.
func (s *System) NewRegister(init shm.Value) shm.Register {
	if s.started {
		panic("sim: registers must be allocated before Start")
	}
	r := &register{id: len(s.registers), val: init, init: init, writer: -1, home: -1}
	s.registers = append(s.registers, r)
	return r
}

func (s *System) mustOwn(r shm.Register) *register {
	reg, ok := r.(*register)
	if !ok {
		panic(fmt.Sprintf("sim: register %T belongs to a different backend", r))
	}
	return reg
}

// N returns the number of processes.
func (s *System) N() int { return s.cfg.N }

// Start runs body on every process until each is parked on its first
// shared-memory step or has finished. No steps are executed. Start may be
// called once per execution; Reset the System to run another.
//
// Processes are started one at a time, each run up to its first
// shared-memory operation before the next starts: together with the
// coroutine switches this serializes *all* process code (including local
// computation before the first step), so process bodies may safely share
// plain test instrumentation without synchronization.
func (s *System) Start(body func(h shm.Handle)) {
	if s.started {
		panic("sim: Start called twice (Reset the System between executions)")
	}
	if s.released {
		panic("sim: Start on a released System")
	}
	s.started = true
	if s.cfg.CountRMRs {
		// Size the CC caches to the (now fixed) register footprint. The
		// slices are reused across Reset cycles without clearing: stale
		// entries are neutralized by the registers' monotone write
		// versions, keeping Reset O(steps).
		for _, p := range s.procs {
			if len(p.cache) < len(s.registers) {
				p.cache = make([]int, len(s.registers))
			}
		}
	}
	for _, p := range s.procs {
		p.body = body
		if p.next == nil {
			p.next, p.stop = iter.Pull(p.run)
		}
		s.resume(p)
	}
}

// resume runs p until it parks on its next step or its body ends.
func (s *System) resume(p *proc) {
	parked, alive := p.next()
	if !alive {
		p.next, p.stop = nil, nil // a one-shot coroutine ends with its body
	}
	if parked {
		p.state = stateParked
		s.parked++
	} else if p.state != stateKilled {
		p.state = stateDone
	}
}

// Step executes one shared-memory step of process pid, which must be
// parked. It returns the executed event.
func (s *System) Step(pid int) StepEvent {
	p := s.procs[pid]
	if p.state != stateParked {
		panic(fmt.Sprintf("sim: Step(%d) but process is not parked (state %d)", pid, p.state))
	}
	op := p.pending
	if op.reg.reads == 0 && op.reg.writes == 0 {
		s.touched = append(s.touched, op.reg)
	}
	if s.cfg.CountRMRs {
		s.chargeRMRs(p, op)
	}
	ev := StepEvent{Time: s.time, PID: pid, Kind: op.kind, Reg: op.reg.id}
	switch op.kind {
	case OpRead:
		ev.Val = op.reg.val
		op.reg.reads++
		if s.cfg.SeeHook != nil && op.reg.writer >= 0 {
			s.cfg.SeeHook(pid, op.reg.writer)
		}
	case OpWrite:
		op.reg.val = op.val
		op.reg.writer = pid
		op.reg.writes++
		ev.Val = op.val
	default:
		panic("sim: invalid pending op")
	}
	s.time++
	p.steps++
	p.state = stateCreated // transiently neither parked nor done
	s.parked--
	if s.cfg.RecordSchedule {
		s.schedule = append(s.schedule, pid)
	}
	if s.cfg.StepHook != nil {
		s.cfg.StepHook(ev)
	}
	p.grant = ev.Val
	s.resume(p)
	return ev
}

// chargeRMRs applies the remote-memory-reference charging rules to the
// step about to execute, mirroring internal/concurrent's accounting on
// its padded register banks (here every simulated register is its own
// line by construction):
//
//   - DSM: the first process to access a register claims it into its
//     memory segment; every access by any other process is remote —
//     re-reads included, since DSM machines have no caches.
//   - CC read: remote iff another process wrote the register since the
//     reader last cached it; the read re-caches the register, so
//     spinning on an unchanged register is free. Registers never
//     written cost nothing to read (no coherence traffic).
//   - CC write: remote unless the writer owns the line exclusively —
//     it was the last writer and no other process read the register in
//     between (a sharer's copy would have to be invalidated).
//
// Accounting only reads scheduler-side state and only writes accounting
// fields, so executions are step-for-step identical with it on or off.
func (s *System) chargeRMRs(p *proc, op pendingOp) {
	r := op.reg
	if r.home == -1 {
		r.home = p.id
	} else if r.home != p.id {
		p.dsmRMRs++
	}
	switch op.kind {
	case OpRead:
		if r.writer >= 0 && r.writer != p.id {
			if p.cache[r.id] != r.ver {
				p.ccRMRs++
				p.cache[r.id] = r.ver
			}
			r.shared = true
		}
	case OpWrite:
		if r.writer != p.id || r.shared {
			p.ccRMRs++
		}
		r.ver++
		r.shared = false
		p.cache[r.id] = r.ver
	}
}

// Kill crashes process pid: its body unwinds and it takes no further
// steps. Killing a non-parked process is a no-op.
func (s *System) Kill(pid int) {
	p := s.procs[pid]
	if p.state != stateParked {
		return
	}
	p.state = stateKilled
	s.parked--
	p.kill = true
	s.resume(p)
	p.kill = false
}

// Close crashes every still-parked process. It is safe to call multiple
// times and must be called (directly or via Run) before abandoning a
// started System. On a Reuse System the process coroutines stay parked for
// the next Reset/Start cycle; Release frees them for good.
func (s *System) Close() {
	if s.closed {
		return
	}
	s.closed = true
	if !s.started {
		return
	}
	for _, p := range s.procs {
		s.Kill(p.id)
	}
}

// Reset returns the System to its initial state so it can run another
// execution: registers touched by the previous execution are restored to
// their construction-time values, step and coin counters are cleared, and
// every process's coin stream is reseeded from seed exactly as
// NewSystem(Config{Seed: seed}) would. The registers, algorithm objects
// built on them, and (with Config.Reuse) the process coroutines all
// survive, so a Reset costs O(steps of the previous execution), not
// O(space). A running System is Closed first.
func (s *System) Reset(seed int64) {
	if s.released {
		panic("sim: Reset on a released System")
	}
	s.Close()
	for _, r := range s.touched {
		r.val = r.init
		r.writer = -1
		r.reads = 0
		r.writes = 0
		// Accounting state back to pristine; the version bump strands
		// every CC cache entry recorded against the old contents, so
		// the per-process caches need no clearing (versions are
		// monotone for the System's lifetime).
		r.ver++
		r.shared = false
		r.home = -1
	}
	s.touched = s.touched[:0]
	s.schedule = s.schedule[:0]
	s.time = 0
	s.parked = 0
	s.cfg.Seed = seed
	for _, p := range s.procs {
		p.state = stateCreated
		p.steps = 0
		p.ccRMRs = 0
		p.dsmRMRs = 0
		p.bind(seed)
	}
	s.started = false
	s.closed = false
}

// Release permanently shuts the System down. On a Reuse System this ends
// the process coroutines parked between executions (a Reuse System that is
// never Released leaks one goroutine per process); without Reuse it is
// equivalent to Close. The System cannot be used afterwards.
func (s *System) Release() {
	if s.released {
		return
	}
	s.Close()
	s.released = true
	for _, p := range s.procs {
		if p.stop != nil {
			p.stop()
			p.next, p.stop = nil, nil
		}
	}
}

// Parked reports whether pid is parked on a pending step.
func (s *System) Parked(pid int) bool { return s.procs[pid].state == stateParked }

// Finished reports whether pid's body returned normally.
func (s *System) Finished(pid int) bool { return s.procs[pid].state == stateDone }

// ParkedCount returns the number of processes currently parked.
func (s *System) ParkedCount() int { return s.parked }

// Time returns the number of executed steps.
func (s *System) Time() int { return s.time }

// StepsOf returns the number of steps pid has executed.
func (s *System) StepsOf(pid int) int { return s.procs[pid].steps }

// CoinsOf returns the number of local coin flips pid has made.
func (s *System) CoinsOf(pid int) int { return s.procs[pid].h.Coins() }

// CCRMRsOf returns the remote memory references pid has been charged
// under the cache-coherent model (zero unless Config.CountRMRs).
func (s *System) CCRMRsOf(pid int) int { return s.procs[pid].ccRMRs }

// DSMRMRsOf returns the remote memory references pid has been charged
// under the distributed-shared-memory model (zero unless
// Config.CountRMRs).
func (s *System) DSMRMRsOf(pid int) int { return s.procs[pid].dsmRMRs }

// MaxSteps returns the maximum per-process step count.
func (s *System) MaxSteps() int {
	m := 0
	for _, p := range s.procs {
		if p.steps > m {
			m = p.steps
		}
	}
	return m
}

// RegisterCount returns the number of allocated registers (the space
// complexity of the objects constructed on this System).
func (s *System) RegisterCount() int { return len(s.registers) }

// TouchedRegisters returns how many registers were read or written at least
// once in the current execution.
func (s *System) TouchedRegisters() int { return len(s.touched) }

// Value returns the current contents of register reg.
func (s *System) Value(reg int) shm.Value { return s.registers[reg].val }

// LastWriter returns the pid visible on register reg, or -1 if no process
// has written it (the paper's "no process is visible on r").
func (s *System) LastWriter(reg int) int { return s.registers[reg].writer }

// Pending reports full (adaptive-adversary) information about pid's pending
// operation. ok is false if pid is not parked. This unfiltered view is for
// tooling such as the Section 5 covering adversary; adversaries go through
// the visibility-filtered View instead.
func (s *System) Pending(pid int) (kind OpKind, reg int, val shm.Value, ok bool) {
	p := s.procs[pid]
	if p.state != stateParked {
		return OpUnknown, -1, 0, false
	}
	return p.pending.kind, p.pending.reg.id, p.pending.val, true
}

// Schedule returns the recorded grant sequence (requires
// Config.RecordSchedule). The returned slice is a copy.
func (s *System) Schedule() []int {
	out := make([]int, len(s.schedule))
	copy(out, s.schedule)
	return out
}
