// Package shm defines the shared-memory abstraction that all algorithms in
// this repository are written against.
//
// The model is the standard asynchronous shared-memory model of the paper:
// up to n processes communicate through atomic multi-reader multi-writer
// registers, and every Read or Write of a register is one "step". Local
// computation, including local coin flips, is free.
//
// Algorithms are expressed once, as ordinary Go code, against the three
// interfaces below:
//
//   - Space allocates registers when an algorithm object is constructed.
//   - Register is an opaque handle to one allocated register.
//   - Handle is the per-process execution context through which a process
//     performs steps (Read/Write) and local coin flips (Intn/Coin).
//
// Two backends implement these interfaces:
//
//   - internal/sim: a deterministic simulator with exact step counting and
//     adversarial scheduling (used for all step/space-complexity
//     experiments), and
//   - internal/concurrent: real sync/atomic registers for use by actual
//     goroutines (the production backend of the public randtas package).
//
// The two backends deliberately sit at different points of the
// portability/performance trade. The simulator needs the indirection:
// its registers and handles interpose the adversary and a switch to the
// scheduler at every step, so algorithms reach it through these
// interfaces. The concurrent backend additionally exposes a concrete
// devirtualized surface (concurrent.Handle.ReadReg/WriteReg on
// *concurrent.Register) with identical semantics and step accounting.
// Exactly one algorithm uses it: the constant-step uncontended doorway
// (tas.FastPath and TAS.TASFastAbortable, over splitter.SplitFast and
// twoproc.LE.ElectFastAbortable), which caches concrete register
// pointers at construction. Every lock acquisition runs the doorway
// first, and it is only a handful of steps, so interface dispatch is a
// large share of its cost; every other elector is written once, against
// the interfaces below, and runs unchanged on both backends.
package shm

// Value is the contents of a register. The paper's algorithms need only
// small integers; a 64-bit word mirrors real hardware registers.
type Value = int64

// Register is an opaque reference to a single atomic register. A Register
// is created by a Space and may only be used with Handles from the same
// backend. Implementations are unexported types in the backend packages.
type Register interface {
	// RegisterID returns a backend-unique identifier, used by the
	// simulator for space accounting and adversary views.
	RegisterID() int
}

// Space allocates registers. Algorithm constructors take a Space so that a
// single implementation runs on any backend. Space implementations must be
// safe for use during object construction only; algorithms never allocate
// registers mid-execution (register footprints are fixed up front, matching
// the paper's space-complexity accounting).
type Space interface {
	// NewRegister allocates a fresh register holding init.
	NewRegister(init Value) Register
}

// Handle is the execution context of one process. A Handle is confined to
// one process (one simulated process or one goroutine); it is not safe for
// concurrent use.
type Handle interface {
	// ID returns the process identifier in [0, n).
	ID() int

	// Read atomically reads r. This is one shared-memory step.
	Read(r Register) Value

	// Write atomically writes v to r. This is one shared-memory step.
	Write(r Register, v Value)

	// Intn returns a uniform integer in [0, n). It is a local coin flip,
	// not a shared-memory step. n must be positive.
	Intn(n int) int

	// Coin returns true with probability p (clamped to [0, 1]). It is a
	// local coin flip, not a shared-memory step.
	Coin(p float64) bool
}

// NewRegisterArray allocates size registers, each initialized to init.
// It is a convenience for algorithms that use register arrays (for example
// the array R[1..l+1] of the paper's Figure 1).
func NewRegisterArray(s Space, size int, init Value) []Register {
	regs := make([]Register, size)
	for i := range regs {
		regs[i] = s.NewRegister(init)
	}
	return regs
}
