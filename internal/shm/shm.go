// Package shm names the shared-memory abstraction that all algorithms in
// this repository are written against.
//
// The model is the standard asynchronous shared-memory model of the paper:
// up to n processes communicate through atomic multi-reader multi-writer
// registers, and every Read or Write of a register is one "step". Local
// computation, including local coin flips, is free.
//
// Algorithms are expressed once, as ordinary Go code, against three names:
//
//   - Space allocates registers when an algorithm object is constructed.
//   - Register is an opaque reference to one allocated register.
//   - Handle is the per-process execution context through which a process
//     performs steps (Read/Write), local coin flips (Intn/Coin) and, on
//     the abortable doorway, polls its abort flag (Aborting).
//
// Two backends implement Space and Register:
//
//   - internal/sim: a deterministic simulator with exact step counting and
//     adversarial scheduling (used for all step/space-complexity
//     experiments), and
//   - internal/concurrent: real sync/atomic registers for use by actual
//     goroutines (the production backend of the public randtas package).
//
// There is one handle type, *concurrent.Handle, and Handle is its alias,
// so every step is a static call. A simulated process's handle and a
// combiner fiber's handle hand their steps to a scheduler (the simulator
// or the combiner); a production handle, whose scheduler is nil, steps
// on the atomic registers. Register and Space stay interfaces, because
// the simulator keeps its own register type for its adversary views and
// RMR bookkeeping.
//
// The package holds only these aliases, defined in internal/concurrent
// (the leaf of the shared-memory layer), and NewRegisterArray. The names
// stay because the algorithms and the benchmark module (bench/) are
// written against them.
package shm

import "repro/internal/concurrent"

type (
	// Value is the contents of a register.
	Value = concurrent.Value
	// Register is an opaque reference to a single atomic register of
	// either backend.
	Register = concurrent.AnyRegister
	// Space allocates registers on either backend.
	Space = concurrent.AnySpace
	// Handle is the execution context of one process.
	Handle = *concurrent.Handle
)

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
