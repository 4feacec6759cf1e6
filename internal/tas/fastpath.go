// The uncontended doorway: a constant-step fast path in front of any
// leader election.
//
// A long-lived lock chained from one-shot TAS rounds (internal/arena)
// pays a full n-process election per acquisition even when nobody else
// wants the lock. The classic remedy — the same move RatRace makes at
// its primary-tree leaves, and the fast-path idea running through
// Giakkoupis–Woelfel's "Efficient Randomized Test-And-Set
// Implementations" — is to front the election with a splitter: a solo
// (or early, unobstructed) caller wins the splitter in 4 steps and only
// has to survive a two-process final, while everyone else falls through
// to the full election. Uncontended acquisitions then cost O(1) steps
// regardless of the inner algorithm; contended ones pay 4 extra steps.
//
// The doorway is also where aborts live. Its abortable chain —
// TAS.TASAbortable over FastPath.ElectAbortable over the final's
// twoproc.LE.ElectAbortable — polls the handle's abort flag at its
// decision points, and is written once against shm.Handle like every
// other elector, so the simulator's adversaries run it as they run the
// rest. The inner election runs to completion and never polls.
package tas

import (
	"repro/internal/shm"
	"repro/internal/splitter"
	"repro/internal/twoproc"
)

// FastPath wraps an inner leader election with a constant-step
// uncontended doorway. It is itself a LeaderElector, so it composes
// with New like any other elector.
//
// Protocol: every caller first enters a deterministic splitter.
//
//   - The (unique) Stop caller skips the inner election entirely and
//     plays slot 0 of a two-process final.
//   - Everyone else runs the inner election; its unique winner plays
//     slot 1 of the final. Inner losers lose.
//
// Exactly-one-winner: the final has at most one contender per slot
// (at most one Stop caller; at most one inner winner), so at most one
// caller wins overall. If all participants complete, at least one slot
// of the final is occupied — either some caller received Stop, or all
// of them entered the inner election, which elects exactly one — and a
// final with at least one contender elects exactly one. A solo caller
// always receives Stop and wins the final unopposed in O(1) expected
// steps (Tromp–Vitányi).
type FastPath struct {
	sp    *splitter.Splitter
	final *twoproc.LE
	inner LeaderElector
}

var _ LeaderElector = (*FastPath)(nil)

// NewFastPath allocates the doorway (one splitter + one two-process
// final, four registers) on s in front of inner. Inner must be built on
// the same space so that a Space.Reset recycles doorway and inner
// together.
func NewFastPath(s shm.Space, inner LeaderElector) *FastPath {
	return &FastPath{sp: splitter.New(s), final: twoproc.New(s), inner: inner}
}

// Elect implements LeaderElector.
func (f *FastPath) Elect(h shm.Handle) bool {
	won, _ := f.elect(h, false)
	return won
}

// ElectAbortable is Elect plus an abort protocol. It returns (won,
// aborted):
//
//   - (true, false)  — the caller won.
//   - (false, false) — the caller genuinely lost: some other participant
//     won or will win the election.
//   - (false, true)  — the caller aborted. It has announced its
//     departure (its protocol state can no longer block or elect
//     anyone), but its loss implies nothing about a winner existing:
//     if every live participant aborts, the election ends winnerless.
//     Accounting for that case is the caller's job (the arena recycles
//     a winnerless round; see internal/arena).
//
// With the abort flag never set the call is observably identical to
// Elect — same shared-memory operations, same step counts, same coin
// consumption. The flag is polled at the doorway's decision points and
// inside the final's spin loop (the only unbounded wait in the
// composition):
//
//   - Abort before the splitter: leave without entering; zero steps.
//   - Stop caller: the final (slot 0) runs abortably.
//   - Abort after a non-Stop splitter outcome: skip the inner election
//     entirely. Elections tolerate any subset of their processes never
//     showing up, so a skipped entry just means fewer inner contenders.
//   - Inner participants run the inner election to completion — its
//     expected step count is bounded, so it is not a park point — and an
//     inner winner plays the final (slot 1) abortably.
//
// An aborted Stop caller or aborted inner winner departs the final with
// its flag down, so the opposite slot (if occupied) still elects; if no
// other contender exists the round ends winnerless, which the (false,
// true) return makes the caller account for.
func (f *FastPath) ElectAbortable(h shm.Handle) (won, aborted bool) {
	return f.elect(h, true)
}

// elect is the one body of Elect and ElectAbortable; abortable turns on
// the doorway's abort polls and the final's.
func (f *FastPath) elect(h shm.Handle, abortable bool) (won, aborted bool) {
	if abortable && h.Aborting() {
		return false, true
	}
	slot := 0
	if f.sp.Split(h) != splitter.Stop {
		if abortable && h.Aborting() {
			return false, true
		}
		if !f.inner.Elect(h) {
			return false, false
		}
		slot = 1
	}
	if abortable {
		return f.final.ElectAbortable(h, slot)
	}
	return f.final.Elect(h, slot), false
}
