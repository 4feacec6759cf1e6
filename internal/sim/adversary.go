package sim

import (
	"repro/internal/rng"
	"repro/internal/shm"
)

// Visibility is the information class of an adversary, mirroring the
// adversary hierarchy in the paper's preliminaries. The simulator filters
// what an adversary can observe about *pending* operations according to its
// declared class; past steps are visible to every class except the
// oblivious one (which by definition decides the whole schedule up front
// and therefore observes nothing).
type Visibility uint8

const (
	// VisibilityOblivious adversaries fix the schedule before the
	// execution: the view exposes only liveness (parked/finished), which
	// the scheduler needs to skip finished processes; exposing it does
	// not add power because scheduling a finished process is a no-op.
	VisibilityOblivious Visibility = iota + 1
	// VisibilityLocation corresponds to the location-oblivious adversary:
	// it observes all past steps and the type and argument of pending
	// operations, but not the register a pending operation will access.
	VisibilityLocation
	// VisibilityRW corresponds to the R/W-oblivious adversary: it
	// observes all past steps and the register of pending operations,
	// but not whether a pending operation is a read or a write.
	VisibilityRW
	// VisibilityAdaptive observes everything.
	VisibilityAdaptive
)

func (v Visibility) String() string {
	switch v {
	case VisibilityOblivious:
		return "oblivious"
	case VisibilityLocation:
		return "location-oblivious"
	case VisibilityRW:
		return "rw-oblivious"
	case VisibilityAdaptive:
		return "adaptive"
	default:
		return "invalid"
	}
}

// View is the adversary's visibility-filtered window onto the execution.
// It is a lightweight wrapper over the System; methods are O(1).
type View struct {
	sys *System
	vis Visibility
}

// N returns the number of processes.
func (v View) N() int { return v.sys.N() }

// Time returns the number of steps executed so far.
func (v View) Time() int { return v.sys.time }

// Parked reports whether pid has a pending step.
func (v View) Parked(pid int) bool { return v.sys.Parked(pid) }

// ParkedCount returns how many processes have a pending step.
func (v View) ParkedCount() int { return v.sys.parked }

// Steps returns the number of steps pid has taken (past information,
// visible to all classes above oblivious).
func (v View) Steps(pid int) int {
	if v.vis == VisibilityOblivious {
		return 0
	}
	return v.sys.StepsOf(pid)
}

// PendingKind returns the type of pid's pending operation, or OpUnknown if
// the adversary's class hides it (R/W-oblivious and oblivious).
func (v View) PendingKind(pid int) OpKind {
	if v.vis != VisibilityLocation && v.vis != VisibilityAdaptive {
		return OpUnknown
	}
	kind, _, _, ok := v.sys.Pending(pid)
	if !ok {
		return OpUnknown
	}
	return kind
}

// PendingReg returns the register id of pid's pending operation, or -1 if
// the adversary's class hides it (location-oblivious and oblivious).
func (v View) PendingReg(pid int) int {
	if v.vis != VisibilityRW && v.vis != VisibilityAdaptive {
		return -1
	}
	_, reg, _, ok := v.sys.Pending(pid)
	if !ok {
		return -1
	}
	return reg
}

// PendingVal returns the value of pid's pending write. It is visible
// exactly when the operation type is (a value only exists for writes).
func (v View) PendingVal(pid int) (shm.Value, bool) {
	if v.vis != VisibilityLocation && v.vis != VisibilityAdaptive {
		return 0, false
	}
	kind, _, val, ok := v.sys.Pending(pid)
	if !ok || kind != OpWrite {
		return 0, false
	}
	return val, true
}

// RegisterValue returns the current contents of a register. Register
// contents are determined by past steps, so every class above oblivious may
// observe them.
func (v View) RegisterValue(reg int) (shm.Value, bool) {
	if v.vis == VisibilityOblivious {
		return 0, false
	}
	return v.sys.Value(reg), true
}

// Adversary decides the schedule. Next returns the pid of the next process
// to step; returning a negative value stops the execution, crashing every
// process that has not finished. Next is only consulted while at least one
// process is parked and must return a parked pid (use View.Parked).
type Adversary interface {
	// Visibility declares the adversary's information class; the View
	// passed to Next is filtered accordingly.
	Visibility() Visibility
	// Next picks the next process to step.
	Next(v View) int
}

// Result summarizes one execution.
type Result struct {
	// Steps is the per-process step count.
	Steps []int
	// MaxSteps is the maximum entry of Steps (the paper's individual
	// step-complexity measure).
	MaxSteps int
	// TotalSteps is the number of executed steps.
	TotalSteps int
	// Finished[i] reports whether process i completed its body (false
	// means it was crashed by the adversary stopping early).
	Finished []bool
	// Registers is the allocated register count (space complexity).
	Registers int

	// The paper's second cost currency, populated only under
	// Config.CountRMRs (all zero otherwise): per-process remote memory
	// references in the cache-coherent and distributed-shared-memory
	// models, with their maxima and totals.
	CCRMRs       []int
	DSMRMRs      []int
	MaxCCRMRs    int
	MaxDSMRMRs   int
	TotalCCRMRs  int
	TotalDSMRMRs int
}

// Run drives the execution: it starts body on every process and repeatedly
// consults adv until every process has finished or adv stops. The System is
// closed on return.
func (s *System) Run(adv Adversary, body func(h shm.Handle)) Result {
	var res Result
	s.RunInto(adv, body, &res)
	return res
}

// RunInto is Run writing its summary into res, reusing res's slices when
// they have capacity. Monte Carlo drivers that Reset-recycle a System pair
// it with one long-lived Result so a trial allocates nothing for its
// summary.
func (s *System) RunInto(adv Adversary, body func(h shm.Handle), res *Result) {
	s.Start(body)
	defer s.Close()
	view := View{sys: s, vis: adv.Visibility()}
	for s.parked > 0 {
		pid := adv.Next(view)
		if pid < 0 {
			break
		}
		s.Step(pid)
	}
	n := s.N()
	if cap(res.Steps) < n {
		res.Steps = make([]int, n)
	} else {
		res.Steps = res.Steps[:n]
	}
	if cap(res.Finished) < n {
		res.Finished = make([]bool, n)
	} else {
		res.Finished = res.Finished[:n]
	}
	if cap(res.CCRMRs) < n {
		res.CCRMRs = make([]int, n)
	} else {
		res.CCRMRs = res.CCRMRs[:n]
	}
	if cap(res.DSMRMRs) < n {
		res.DSMRMRs = make([]int, n)
	} else {
		res.DSMRMRs = res.DSMRMRs[:n]
	}
	res.MaxSteps = 0
	res.TotalSteps = s.time
	res.Registers = s.nregs
	res.MaxCCRMRs, res.MaxDSMRMRs = 0, 0
	res.TotalCCRMRs, res.TotalDSMRMRs = 0, 0
	for i, p := range s.procs {
		steps, cc, dsm := p.h.Steps(), p.h.CCRMRs(), p.h.DSMRMRs()
		res.Steps[i] = steps
		res.Finished[i] = p.state == stateDone
		if steps > res.MaxSteps {
			res.MaxSteps = steps
		}
		res.CCRMRs[i] = cc
		res.DSMRMRs[i] = dsm
		res.TotalCCRMRs += cc
		res.TotalDSMRMRs += dsm
		if cc > res.MaxCCRMRs {
			res.MaxCCRMRs = cc
		}
		if dsm > res.MaxDSMRMRs {
			res.MaxDSMRMRs = dsm
		}
	}
}

// RoundRobin is the canonical fair schedule: processes step in cyclic
// order, skipping finished ones. It is oblivious (the schedule does not
// depend on the execution).
type RoundRobin struct {
	cursor int
}

// NewRoundRobin returns a fair cyclic scheduler.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Visibility implements Adversary.
func (r *RoundRobin) Visibility() Visibility { return VisibilityOblivious }

// Next implements Adversary.
func (r *RoundRobin) Next(v View) int {
	n := v.N()
	for i := 0; i < n; i++ {
		pid := (r.cursor + i) % n
		if v.Parked(pid) {
			r.cursor = (pid + 1) % n
			return pid
		}
	}
	return -1
}

// RandomOblivious schedules a uniformly random parked process each step.
// The randomness comes from the adversary's own generator fixed up front,
// independent of the processes' coins, so the schedule is oblivious. The
// generator is an embedded splitmix64 stream (engine v2 bumped the
// seed→schedule mapping from the earlier math/rand source; see the
// package comment).
type RandomOblivious struct {
	rng rng.SplitMix64
}

// NewRandomOblivious returns an oblivious uniformly-random scheduler.
func NewRandomOblivious(seed int64) *RandomOblivious {
	return &RandomOblivious{rng: rng.New(uint64(seed))}
}

// Visibility implements Adversary.
func (r *RandomOblivious) Visibility() Visibility { return VisibilityOblivious }

// Next implements Adversary.
func (r *RandomOblivious) Next(v View) int {
	n := v.N()
	// Rejection-sample a parked pid; fall back to a scan when few remain.
	for i := 0; i < 8; i++ {
		pid := r.rng.Intn(n)
		if v.Parked(pid) {
			return pid
		}
	}
	start := r.rng.Intn(n)
	for i := 0; i < n; i++ {
		pid := (start + i) % n
		if v.Parked(pid) {
			return pid
		}
	}
	return -1
}

// FixedSchedule replays an explicit pid sequence, then stops. Scheduling a
// non-parked pid skips that entry. It is oblivious by construction; tests
// use it to script an execution step by step, such as the splitter's
// exhaustive two-process schedule enumeration.
type FixedSchedule struct {
	seq []int
	pos int
}

// NewFixedSchedule copies seq into a replayable schedule.
func NewFixedSchedule(seq []int) *FixedSchedule {
	cp := make([]int, len(seq))
	copy(cp, seq)
	return &FixedSchedule{seq: cp}
}

// Visibility implements Adversary.
func (f *FixedSchedule) Visibility() Visibility { return VisibilityOblivious }

// Next implements Adversary.
func (f *FixedSchedule) Next(v View) int {
	for f.pos < len(f.seq) {
		pid := f.seq[f.pos]
		f.pos++
		if v.Parked(pid) {
			return pid
		}
	}
	return -1
}

// Func wraps a scheduling function together with a declared visibility
// class. It is the convenient way to express custom (notably adaptive)
// strategies in tests and experiments.
type Func struct {
	Vis  Visibility
	Pick func(v View) int
}

// Visibility implements Adversary.
func (f *Func) Visibility() Visibility { return f.Vis }

// Next implements Adversary.
func (f *Func) Next(v View) int { return f.Pick(v) }
