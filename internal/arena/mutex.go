// TAS-chaining mutex: a long-lived lock built from one-shot TAS rounds,
// with fencing tokens.
//
// The lock's state is a pointer to the current *round*, which wraps one
// arena slot. Locking means "win the current round's TAS"; unlocking
// means "acquire a fresh slot, install it as the next round, and retire
// the old one". Exactly one process ever receives 0 from a round's TAS,
// and the next round exists only after the previous one is handed over,
// so mutual exclusion follows directly from the one-shot TAS property.
//
// # Fencing tokens
//
// Every successful acquisition returns the winning round's sequence
// number as a fencing Token. Rounds are installed with strictly
// increasing sequence numbers — by the holder's Unlock, by Revoke (lease
// enforcement force-installing the successor over a hung holder), and by
// Retire (eviction) alike — so tokens are strictly monotone over the
// lock's whole history: a downstream resource that remembers the largest
// token it has seen can reject any stale writer, and Unlock verifies its
// token so a revoked holder's release reports ErrFenced instead of
// corrupting the chain.
//
// # The gate word
//
// Win, release, revocation and retirement race each other; a single
// atomic "gate" word serializes their decisions:
//
//	0        the lock is free (no decided winner for the current round)
//	t        the holder of token t has the lock
//	retired  the mutex is retired (evicted); no further acquisitions
//
// A process that wins a round's TAS publishes its claim with
// gate.CAS(0→t); if that fails the mutex was retired while the TAS was
// in flight and the win is discarded (safe: the round is closed, no
// successor will ever be granted from it). Unlock and Revoke both start
// with gate.CAS(t→0), so exactly one of them performs the handover; the
// loser observes ErrFenced / false. Retire starts with gate.CAS(0→retired),
// which can only succeed while no winner is decided, and any in-flight
// winner then fails its own claim CAS. The invariant behind the claim
// CAS: whenever a round is winnable, the gate is 0 or retired, because
// every path that installs a successor clears the gate first.
//
// # Recycling
//
// Retiring a round's slot safely is the delicate part: the old slot's
// registers may only be reset (Arena.Put) once every process that
// entered the round has left it. Each round carries a refcount;
// processes increment it before touching the slot and decrement on the
// way out, the winner holds its reference until Unlock (even a fenced
// one), and whoever drops the count to zero after the round is closed
// recycles the slot. Sequentially consistent atomics give the key
// invariant: a process that observed closed == false after incrementing
// is counted before the closing side's zero-check, so the count cannot
// reach zero while anyone may still step on the registers.
package arena

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/concurrent"
)

// Lock-ownership errors. They are re-exported by the public randtas
// package and mapped onto wire statuses by the tasd server.
var (
	// ErrFenced reports a release that lost to a revocation: the lease
	// expired (or the lock was retired) and the successor round was
	// force-installed, so the caller's token no longer owns the lock.
	ErrFenced = errors.New("arena: fencing token superseded (lease expired or lock revoked)")
	// ErrNotHeld reports an Unlock by a proc that holds nothing.
	ErrNotHeld = errors.New("arena: unlock of a mutex this proc does not hold")
	// ErrBadToken reports an Unlock whose token does not match the round
	// the proc holds — a stale token from an earlier acquisition.
	ErrBadToken = errors.New("arena: unlock token does not match the held round")
	// ErrRetired reports an acquisition attempt on a retired (evicted)
	// mutex; look the name up again to get its successor.
	ErrRetired = errors.New("arena: mutex retired (evicted from its registry)")
	// ErrAborted reports a Lock(nil) cut short by MutexProc.Abort — an
	// external cancellation with no context to carry the cause.
	ErrAborted = errors.New("arena: lock acquisition aborted")
)

// retiredGate is the gate-word sentinel for a retired mutex. Tokens are
// round sequence numbers counted from 1, so the sentinel is unreachable
// as a real token.
const retiredGate = math.MaxUint64

// Mutex is a long-lived mutual-exclusion lock chained from one-shot TAS
// rounds drawn from an Arena. Create one with NewMutex; each goroutine
// interacts through its own MutexProc.
type Mutex struct {
	arena *Arena
	cur   atomic.Pointer[round]
	gate  atomic.Uint64 // 0 free | token held | retiredGate

	rounds      atomic.Uint64 // completed Lock/Unlock cycles
	contended   atomic.Uint64 // blocking Lock attempts that lost a round's TAS
	probeLosses atomic.Uint64 // failed nonblocking TryLock probes
	expirations atomic.Uint64 // revocations (lease expiries enforced via Revoke)
	aborts      atomic.Uint64 // acquisitions resolved by abort (a loss, by protocol)
	recovered   atomic.Uint64 // winnerless rounds recycled by abort recovery
}

type round struct {
	slot   *Slot
	seq    uint64
	refs   atomic.Int64
	closed atomic.Bool
	reaped atomic.Bool

	// Abort bookkeeping. aborts counts participants whose TAS resolved
	// by abort: they lost without implying a winner, so a round whose
	// refcount drains to zero with aborts > 0, no claimed winner and no
	// successor may be permanently winnerless — recovering is the
	// exactly-once ticket for recycling it (see Mutex.recoverRound).
	// gateHeld marks that recovery still holds the gate pseudo-claim
	// when it hands the release off to the round's last straggler.
	aborts     atomic.Int64
	recovering atomic.Bool
	gateHeld   atomic.Bool
}

// NewMutex builds a mutex on a, drawing its first round's slot from
// shard 0.
func NewMutex(a *Arena) *Mutex {
	m := &Mutex{arena: a}
	m.cur.Store(&round{slot: a.Get(0), seq: 1})
	return m
}

// Arena returns the arena backing this mutex.
func (m *Mutex) Arena() *Arena { return m.arena }

// Holder returns the fencing token of the current holder, or 0 when the
// lock is free (or retired). It is an advisory snapshot: by the time the
// caller acts on it the lock may have changed hands, but tokens are
// strictly monotone, so a resource that admits writes only from the
// largest token it has ever seen is always safe.
func (m *Mutex) Holder() uint64 {
	g := m.gate.Load()
	if g == retiredGate {
		return 0
	}
	return g
}

// Retired reports whether the mutex has been retired (evicted).
func (m *Mutex) Retired() bool { return m.gate.Load() == retiredGate }

// Revoke forcibly releases the holder of token tok: it installs the
// successor round so waiters can proceed, and the zombie holder's own
// eventual Unlock(tok) reports ErrFenced. It returns false when tok no
// longer holds the lock (already released, already revoked, or never
// granted). This is the lease-enforcement hook: a lock service that
// granted tok with a TTL calls Revoke when the TTL expires.
//
// The revoked round's slot is recycled only after the zombie's Unlock
// (or its proc's teardown) drops the winner's reference — until then the
// zombie may still legally read the round's registers.
func (m *Mutex) Revoke(tok uint64) bool {
	if tok == 0 || tok == retiredGate || !m.gate.CompareAndSwap(tok, 0) {
		return false
	}
	// The gate CAS makes us the unique releaser of round tok: the holder
	// observed-or-will-observe its own gate CAS fail. Install the
	// successor unless a concurrent Retire got the (momentarily free)
	// lock first.
	r := m.cur.Load()
	if r.seq != tok {
		return true // Retire raced in and already moved the chain on
	}
	next := &round{slot: m.arena.Get(0), seq: r.seq + 1}
	if m.cur.CompareAndSwap(r, next) {
		r.closed.Store(true)
		m.expirations.Add(1)
	} else {
		m.arena.Put(next.slot) // pristine, never published
	}
	return true
}

// Retire permanently closes the mutex for its registry's eviction path:
// no further acquisition can succeed (ErrRetired), and the final round's
// slot returns to the arena once stragglers drain. It returns false if
// the lock is currently held (or already retired); the caller should
// treat the name as active and skip it.
func (m *Mutex) Retire() bool {
	if !m.gate.CompareAndSwap(0, retiredGate) {
		return false
	}
	// No winner can be decided from here on (claim CASes fail against
	// the sentinel), and no release/revoke can run (they need gate ==
	// token), so only a release that already cleared the gate can still
	// be installing a successor — loop until our tombstone lands.
	for {
		r := m.cur.Load()
		tomb := &round{seq: r.seq + 1}
		tomb.closed.Store(true)
		tomb.reaped.Store(true) // nothing to recycle: no slot
		if m.cur.CompareAndSwap(r, tomb) {
			r.closed.Store(true)
			if r.refs.Load() == 0 && r.reaped.CompareAndSwap(false, true) {
				// Quiet retirement: nobody in the round, recycle now.
				// Anyone arriving later sees closed before touching the
				// registers (their ref precedes our zero read otherwise).
				m.arena.Put(r.slot)
			}
			return true
		}
	}
}

// MutexStats is a snapshot of a mutex's counters.
type MutexStats struct {
	// Rounds is the number of completed Lock/Unlock cycles.
	Rounds uint64
	// Contended counts blocking Lock attempts that entered a round and
	// lost its TAS — real lock contention.
	Contended uint64
	// ProbeLosses counts failed nonblocking TryLock calls. They are kept
	// out of Contended so that throughput reports do not conflate
	// polling with processes genuinely waiting for the lock.
	ProbeLosses uint64
	// Expirations counts forced handovers via Revoke — lease expiries
	// enforced against hung holders.
	Expirations uint64
	// Aborts counts acquisitions that resolved by abort: a cancelled
	// context, a server drain, or an explicit MutexProc.Abort cut the
	// attempt short and it was accounted as a loss.
	Aborts uint64
	// Recovered counts winnerless rounds recycled by abort recovery:
	// every live participant of the round aborted, so no winner existed
	// to install a successor and the mutex recycled the round itself.
	Recovered uint64
}

// Stats snapshots the mutex counters.
func (m *Mutex) Stats() MutexStats {
	return MutexStats{
		Rounds:      m.rounds.Load(),
		Contended:   m.contended.Load(),
		ProbeLosses: m.probeLosses.Load(),
		Expirations: m.expirations.Load(),
		Aborts:      m.aborts.Load(),
		Recovered:   m.recovered.Load(),
	}
}

// Proc creates the per-goroutine access point for process id, stepping
// through h. ids must be unique among concurrent users and in [0, N) of
// the backing arena; h must be used by this MutexProc only.
func (m *Mutex) Proc(id int, h *concurrent.Handle) *MutexProc {
	if id < 0 || id >= m.arena.N() {
		panic("arena: mutex proc id out of range of the backing arena's N")
	}
	return &MutexProc{m: m, h: h, id: id, wake: make(chan struct{}, 1)}
}

// MutexProc is one goroutine's handle on a Mutex. It is confined to a
// single goroutine, like every shm.Handle — with one exception: Abort
// may be called from any goroutine.
type MutexProc struct {
	m     *Mutex
	h     *concurrent.Handle
	id    int
	last  uint64 // seq of the round already attempted (one TAS per round)
	held  *round
	wake  chan struct{} // capacity 1; Abort's kick out of a park
	parkT *time.Timer   // reused across parks; owned by this goroutine
}

// Steps reports the cumulative shared-memory steps this proc has taken
// across all rounds — the monotone step accounting of the underlying
// handle.
func (p *MutexProc) Steps() int { return p.h.Steps() }

// CCRMRs reports the cumulative cache-coherent-model remote memory
// references of the underlying handle. Always zero unless the backing
// arena was built with Config.CountRMRs.
func (p *MutexProc) CCRMRs() int { return p.h.CCRMRs() }

// DSMRMRs is CCRMRs for the distributed-shared-memory cost model.
func (p *MutexProc) DSMRMRs() int { return p.h.DSMRMRs() }

// Token returns the fencing token this proc currently holds, or 0 when
// it does not hold the mutex.
func (p *MutexProc) Token() uint64 {
	if p.held == nil {
		return 0
	}
	return p.held.seq
}

// Lock acquires the mutex, blocking until this proc wins a round or ctx
// is done. On success it returns the round's fencing token. A nil ctx
// blocks until the mutex is acquired, retired, or externally aborted.
//
// Cancellation is abortive: ctx arms an abort on the proc's handle
// (context.AfterFunc), so a cancel lands mid-election — at the next
// spin point of the abortable elector or the next bounded park — not
// merely between rounds. A cancelled Lock leaves no residue: if the
// proc turns out to have won the race against its own cancellation, the
// round is released before returning ctx.Err().
func (p *MutexProc) Lock(ctx context.Context) (uint64, error) {
	for {
		var stop func() bool
		var unwatch func() bool
		if ctx != nil && ctx.Done() != nil {
			stop = func() bool { return ctx.Err() != nil }
			unwatch = context.AfterFunc(ctx, p.Abort)
		}
		tok, ok := p.LockWhile(stop)
		if unwatch != nil && !unwatch() {
			// The abort callback already ran; its flag (if the win beat
			// it) must not leak into the next acquisition.
			p.h.ClearAbort()
		}
		if ok {
			if ctx != nil && ctx.Err() != nil {
				// Won the race against our own cancellation: undo it.
				_ = p.Unlock(tok)
				return 0, ctx.Err()
			}
			return tok, nil
		}
		if p.m.Retired() {
			return 0, ErrRetired
		}
		if ctx == nil {
			return 0, ErrAborted // external Abort is the only way out
		}
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		// A stale abort from an earlier episode (LockWhile consumed it):
		// our context is still live, so re-enter.
	}
}

// LockWhile acquires like Lock but gives up when stop reports true,
// returning the fencing token and whether the mutex was acquired. stop
// is polled only while waiting for a round transition, never on the
// uncontended path. A lock service uses this to keep blocked waiters
// drainable and to abort waiters whose clients have hung up — wait
// conditions a context cannot express.
//
// An Abort (from any goroutine) also ends the wait: it is observed at
// the elector's spin points and around every park, and LockWhile
// consumes the abort flag on the way out, so one Abort cancels at most
// one acquisition. Cancellation latency is hard-bounded: a parked
// waiter sleeps at most maxParkInterval before re-checking stop, and an
// Abort wakes the park immediately.
func (p *MutexProc) LockWhile(stop func() bool) (uint64, bool) {
	if p.held != nil {
		panic("arena: Lock on a MutexProc that already holds the mutex")
	}
	spins := 0
	for {
		if p.m.Retired() {
			return 0, false
		}
		if p.h.Aborting() {
			// Aborted between rounds (parked, or before entering one):
			// no election state to unwind, so only the mutex-level
			// counter moves — the round-level aborts counter is
			// reserved for mid-election departures, the ones that can
			// leave a round winnerless.
			p.h.ClearAbort()
			p.m.aborts.Add(1)
			return 0, false
		}
		r := p.m.cur.Load()
		if r.seq == p.last {
			// Already lost this round; one TAS per round per proc, so
			// wait for the holder to install the next round.
			if stop != nil && stop() {
				return 0, false
			}
			p.park(&spins)
			continue
		}
		spins = 0
		won, aborted := p.tryRound(r, true)
		if won {
			return r.seq, true
		}
		if aborted {
			p.h.ClearAbort()
			return 0, false
		}
	}
}

// Abort asks this proc's in-flight acquisition to give up. Unlike every
// other MutexProc method it is safe to call from any goroutine: it is
// the crossing point through which a context callback, a lease sweep or
// a server drain reaches a waiter that is parked or mid-election. The
// abort resolves as a loss at the proc's next spin or park point; it is
// consumed by the acquisition it cancels (or, if none is in flight, by
// the next one). Aborting a proc that currently holds the mutex does
// not release the lock — it only cuts short a future acquisition, which
// Lock treats as stale and retries.
func (p *MutexProc) Abort() {
	p.h.Abort()
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// TryLock makes one attempt at the current round and returns the fencing
// token and whether it acquired the mutex. It never blocks; a false
// return means some other proc holds (or just won) the lock, or the
// mutex is retired. Failed probes are counted in MutexStats.ProbeLosses,
// not Contended.
//
// A probe of a round whose claim already sits in the gate loses without
// running the round's TAS: the gate holds r.seq only after a TAS on r
// returned 0 (or while abort recovery closes r), so the TAS could only
// lose. The refusal is booked like a lost TAS, p.last included, so a
// later Lock on the same round parks instead of entering it.
func (p *MutexProc) TryLock() (uint64, bool) {
	if p.held != nil {
		panic("arena: TryLock on a MutexProc that already holds the mutex")
	}
	r := p.m.cur.Load()
	if r.seq == p.last || p.m.gate.Load() == r.seq {
		p.last = r.seq
		p.m.probeLosses.Add(1)
		return 0, false
	}
	won, _ := p.tryRound(r, false)
	if !won {
		p.m.probeLosses.Add(1)
		return 0, false
	}
	return r.seq, true
}

// tryRound enters round r, runs its TAS once, and returns (won,
// aborted). On a win the round's reference is kept until Unlock; on a
// loss, abort or closed round it is released. blocking distinguishes a
// Lock attempt (a loss is real contention) from a TryLock probe (the
// caller accounts for it).
func (p *MutexProc) tryRound(r *round, blocking bool) (bool, bool) {
	r.refs.Add(1)
	if r.closed.Load() {
		// Round already retired; the slot may be reset any moment. Do
		// not touch its registers.
		p.leave(r)
		return false, false
	}
	p.last = r.seq
	// The doorway's abortable entry: step-identical to TAS when no
	// abort lands.
	v, aborted := r.slot.Obj.TASAbortable(p.h)
	if v == 0 {
		// Claim the gate. The CAS can fail because the mutex was retired
		// while our TAS was in flight, because an abort recovery of this
		// round holds the gate, or because the round was already
		// superseded — in each case a successor (or the tombstone) is
		// guaranteed by whoever owns the gate, so the win is safely
		// discarded as a loss. A gate transiently held by an *earlier*
		// round's deferred recovery clears as soon as that round's last
		// straggler leaves; spin it out.
		for {
			if p.m.gate.CompareAndSwap(0, r.seq) {
				p.held = r // keep our reference until Unlock
				return true, false
			}
			g := p.m.gate.Load()
			if g == retiredGate || r.recovering.Load() || p.m.cur.Load() != r {
				break
			}
			runtime.Gosched()
		}
		p.leave(r)
		return false, false
	}
	if aborted {
		// An abort is a loss that implies no winner: count it on the
		// round before leaving so that a refcount drain can tell a
		// possibly-winnerless round from a merely quiet one.
		r.aborts.Add(1)
		p.m.aborts.Add(1)
		p.leave(r)
		return false, true
	}
	if blocking {
		p.m.contended.Add(1)
	}
	p.leave(r)
	return false, false
}

// Unlock releases the mutex if tok still owns it: install a fresh round
// for the waiters, then retire the old one, recycling its slot once the
// last straggler leaves. A token that was revoked out from under the
// holder (lease expiry, retirement) reports ErrFenced — the proc's state
// is cleaned up either way, so the caller may lock again afterwards.
func (p *MutexProc) Unlock(tok uint64) error {
	r := p.held
	if r == nil {
		return ErrNotHeld
	}
	if tok != r.seq {
		return ErrBadToken
	}
	p.held = nil
	if !p.m.gate.CompareAndSwap(tok, 0) {
		// Revoke (or Retire-after-revoke) won the gate: the successor is
		// theirs to install. Drop the winner's reference so the revoked
		// round's slot can recycle.
		p.leave(r)
		return ErrFenced
	}
	next := &round{slot: p.m.arena.Get(p.id), seq: r.seq + 1}
	if p.m.cur.CompareAndSwap(r, next) {
		r.closed.Store(true)
		p.leave(r) // release the winner's reference taken at Lock
		p.m.rounds.Add(1)
		return nil
	}
	// A Retire slipped between our gate clear and the install and moved
	// the chain on; the release itself still succeeded.
	p.m.arena.Put(next.slot)
	p.leave(r)
	p.m.rounds.Add(1)
	return nil
}

// leave drops one reference on r; whoever reaches zero after the round
// closed recycles the slot. The reaped flag makes the recycle exactly
// once even if the count touches zero more than once (possible when a
// late arrival increments after a transient zero, sees closed, and backs
// out without ever touching the registers). Reaching zero on an *open*
// round that saw aborts is the winnerless-round trigger: no participant
// is left inside, nobody claimed the gate, so no winner exists to
// install a successor — recovery recycles the round in place of the
// winner that never was.
func (p *MutexProc) leave(r *round) {
	if r.refs.Add(-1) != 0 {
		return
	}
	if r.closed.Load() {
		if r.reaped.CompareAndSwap(false, true) {
			if r.gateHeld.CompareAndSwap(true, false) {
				// Recovery deferred its gate release to us, the round's
				// last straggler; every claim of this round is decided
				// (claims happen before leave), so it is safe now.
				p.m.gate.CompareAndSwap(r.seq, 0)
			}
			p.m.arena.Put(r.slot)
		}
		return
	}
	if r.aborts.Load() > 0 && r.recovering.CompareAndSwap(false, true) {
		p.m.recoverRound(r)
	}
}

// recoverRound recycles a round that may have ended winnerless: its
// refcount drained to zero while it was still open and at least one
// participant aborted. Every acquisition of the round has resolved (a
// claim happens before the claimant's leave), so if the gate is still
// unclaimed there is no winner and never will be one — recovery stands
// in for the winner that never was: it pseudo-claims the gate (which
// atomically excludes Retire and discards any late entrant's win),
// installs the successor round, and recycles the slot. The recovering
// ticket taken by the caller makes the attempt exactly-once per round.
//
// The net slot accounting is exactly an Unlock's: one Get for the
// successor, one Put of the recovered slot — a fully-aborted round
// consumes nothing from the pool and waiters never see a stuck chain.
func (m *Mutex) recoverRound(r *round) {
	if !m.gate.CompareAndSwap(0, r.seq) {
		// Not winnerless after all: a real winner claimed before our
		// trigger fired (its Unlock installs the successor), or the
		// mutex was retired (the tombstone is the successor).
		return
	}
	if m.cur.Load() != r {
		// The chain already moved past r; nothing to recover.
		m.gate.CompareAndSwap(r.seq, 0)
		return
	}
	// Mark the pseudo-claim as recovery-held *before* installing the
	// successor: a late entrant of r that wins the TAS after this point
	// sees either the held gate plus r.recovering, or the closed round,
	// and discards its win knowing the successor is ours to install.
	r.gateHeld.Store(true)
	next := &round{slot: m.arena.Get(0), seq: r.seq + 1}
	if !m.cur.CompareAndSwap(r, next) {
		// Unreachable while we hold the gate (handover and retirement
		// both need it), but fail safe: undo everything.
		m.arena.Put(next.slot)
		r.gateHeld.Store(false)
		m.gate.CompareAndSwap(r.seq, 0)
		return
	}
	r.closed.Store(true)
	m.recovered.Add(1)
	if r.refs.Load() == 0 && r.reaped.CompareAndSwap(false, true) {
		// No straggler re-entered: release the gate and recycle now.
		// Otherwise the last straggler's leave does both (gateHeld).
		if r.gateHeld.CompareAndSwap(true, false) {
			m.gate.CompareAndSwap(r.seq, 0)
		}
		m.arena.Put(r.slot)
	}
}

// maxParkInterval is the longest a blocked waiter sleeps between checks
// of its stop predicate — the hard bound on cancellation latency for
// stop-based waiters (an Abort additionally wakes the park immediately
// via the proc's wake channel).
const maxParkInterval = 10 * time.Microsecond

// park spins politely: yield the processor for a while, then sleep in
// bounded intervals so heavily oversubscribed workloads don't burn whole
// cores waiting for a round change. The sleep is interruptible by
// Abort and never exceeds maxParkInterval, so a waiter re-checks its
// stop predicate within a bounded delay of it flipping true.
func (p *MutexProc) park(spins *int) {
	*spins++
	if *spins < 32 {
		runtime.Gosched()
		return
	}
	// The timer is reused across parks (a fresh one per park allocates
	// on the contended path); it is safe to Reset because every exit
	// below leaves it stopped-and-drained.
	if p.parkT == nil {
		p.parkT = time.NewTimer(maxParkInterval)
	} else {
		p.parkT.Reset(maxParkInterval)
	}
	select {
	case <-p.wake:
		if !p.parkT.Stop() {
			<-p.parkT.C
		}
	case <-p.parkT.C:
	}
}
