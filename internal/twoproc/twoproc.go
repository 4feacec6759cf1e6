// Package twoproc implements the randomized two-process leader-election
// object of Tromp and Vitányi [13] — the O(1)-register, constant-expected-
// step building block used throughout the paper — and the role-based
// three-process leader election that RatRace composes from two two-process
// objects (Section 3.1).
//
// # The protocol
//
// The object has one flag register per slot, initially down. A process
// first raises its own flag. Then it repeatedly reads the other flag and
// compares it with the value it last wrote:
//
//   - mine up, other down → win (stop, leaving the flag up forever);
//   - mine down, other up → lose (stop, leaving the flag down forever);
//   - flags equal → rewrite the own flag with a fresh fair coin and retry.
//
// Safety: suppose both processes win. A winner's final write is "up" and
// its deciding read (of the other flag) returns "down" and happens after
// that final write. Let t_p, t_q be the deciding reads and τ_p, τ_q the
// final raises. For p to read down at t_p, q's last write before t_p is
// down, so q's final raise τ_q comes after t_p; symmetrically τ_p > t_q.
// With t_p > τ_p and t_q > τ_q this yields t_p > τ_p > t_q > τ_q > t_p, a
// contradiction. The same argument with up/down exchanged shows at most one
// process loses. Both arguments are machine-checked exhaustively in the
// tests over all schedules and coin outcomes to bounded depth.
//
// Progress: in each iteration a process's own fresh coin alone decides
// whether the pair (mine, other-as-last-read) resolves, whatever the stale
// other value is: each iteration ends the call with probability ≥ 1/2.
// Expected step complexity is therefore O(1) even against the adaptive
// adversary, and a solo caller finishes after 2 steps.
package twoproc

import "repro/internal/shm"

const (
	down shm.Value = 0
	up   shm.Value = 1
)

// LE is a randomized leader-election object for two processes. Each of the
// two slots (0 and 1) may be used by at most one process. It uses 2
// registers.
type LE struct {
	flags [2]shm.Register
}

// New allocates a two-process leader election on s.
func New(s shm.Space) *LE {
	le := Make(s)
	return &le
}

// Make is New by value, for objects that keep their elections in one
// slice: it allocates the same two registers in the same order.
func Make(s shm.Space) LE {
	return LE{flags: [2]shm.Register{s.NewRegister(down), s.NewRegister(down)}}
}

// Elect runs the election for the caller occupying the given slot (0 or 1)
// and returns true iff the caller wins. At most one of the two slots'
// calls returns true; a solo call returns true; if both slots complete,
// exactly one wins. Elect ignores the handle's abort flag: RatRace, AGTV
// and the log* chain run it inside their own elections, where a
// departure could leave a non-aborting caller losing with no winner.
func (l *LE) Elect(h shm.Handle, slot int) bool {
	won, _ := l.elect(h, slot, false)
	return won
}

// ElectAbortable is Elect plus an abort protocol: the final of
// tas.FastPath's abortable doorway. It polls h.Aborting() at every spin
// point and, when an abort lands, resolves the call to a loss after
// announcing departure:
//
//   - An abort observed before the first raise costs zero steps — the
//     caller never entered the protocol and the other slot runs solo.
//   - An abort observed inside the retry loop lowers the caller's flag
//     (one write, only if it is currently up) and leaves. After that
//     final down, the other process can only read down here, so it can
//     no longer lose to us — it either wins or has already decided.
//
// Departure only ever writes down, so it cannot mint a second winner:
// the at-most-one-winner proof in the package comment stands unchanged.
// What departure does give up is the guarantee that a loser implies a
// winner — if the other process's deciding read caught our flag up just
// before we lowered it, it loses too and the object ends winnerless.
// The (false, true) return tells the caller it is in that weaker
// regime. In abort-free executions the call is step- and coin-identical
// to Elect.
func (l *LE) ElectAbortable(h shm.Handle, slot int) (won, aborted bool) {
	return l.elect(h, slot, true)
}

// elect is the one body of Elect and ElectAbortable; abortable turns on
// the abort polls.
func (l *LE) elect(h shm.Handle, slot int, abortable bool) (won, aborted bool) {
	if abortable && h.Aborting() {
		return false, true
	}
	mine, other := l.flags[slot], l.flags[1-slot]
	last := up
	h.Write(mine, up)
	for {
		v := h.Read(other)
		switch {
		case last == up && v == down:
			return true, false
		case last == down && v == up:
			return false, false
		}
		if abortable && h.Aborting() {
			if last == up {
				h.Write(mine, down)
			}
			return false, true
		}
		if h.Coin(0.5) {
			last = up
		} else {
			last = down
		}
		h.Write(mine, last)
	}
}

// Role identifies a participant slot of the three-process leader election.
// The three roles match how RatRace wires tree nodes: the process that
// stopped on the node's splitter (Here) and the winners ascending from the
// two subtrees (FromLeft, FromRight).
type Role uint8

// Roles of LE3. Each role may be taken by at most one process.
const (
	Here Role = iota + 1
	FromLeft
	FromRight
)

func (r Role) String() string {
	switch r {
	case Here:
		return "here"
	case FromLeft:
		return "from-left"
	case FromRight:
		return "from-right"
	default:
		return "invalid"
	}
}

// LE3 is a randomized leader election for three processes with designated
// roles, implemented from two two-process objects exactly as in RatRace
// [3]: FromLeft and FromRight first compete on the semifinal object, and
// the survivor meets Here on the final object. It uses 4 registers.
type LE3 struct {
	semifinal LE // FromLeft (slot 0) vs FromRight (slot 1)
	final     LE // semifinal winner (slot 0) vs Here (slot 1)
}

// Make3 allocates a three-process leader election on s, by value (see
// Make).
func Make3(s shm.Space) LE3 {
	return LE3{semifinal: Make(s), final: Make(s)}
}

// Elect runs the election for the caller in the given role and returns
// true iff the caller wins. At most one call returns true; a solo caller
// wins; if every participating role's call completes, exactly one wins.
func (l *LE3) Elect(h shm.Handle, role Role) bool {
	switch role {
	case Here:
		return l.final.Elect(h, 1)
	case FromLeft:
		return l.semifinal.Elect(h, 0) && l.final.Elect(h, 0)
	case FromRight:
		return l.semifinal.Elect(h, 1) && l.final.Elect(h, 0)
	default:
		panic("twoproc: invalid role")
	}
}
