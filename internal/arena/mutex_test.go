package arena

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/concurrent"
)

func newTestMutex(t *testing.T, n int) *Mutex {
	t.Helper()
	a, err := New(Config{N: n, Shards: 2, Prealloc: 2, Factory: logStarFactory})
	if err != nil {
		t.Fatal(err)
	}
	return NewMutex(a)
}

func proc(m *Mutex, id int) *MutexProc {
	return m.Proc(id, concurrent.NewHandle(id, int64(id)*2654435761+1))
}

// lock acquires without a deadline and fails the test on any error.
func lock(t *testing.T, p *MutexProc) uint64 {
	t.Helper()
	tok, err := p.Lock(context.Background())
	if err != nil {
		t.Fatalf("Lock: %v", err)
	}
	return tok
}

func unlock(t *testing.T, p *MutexProc, tok uint64) {
	t.Helper()
	if err := p.Unlock(tok); err != nil {
		t.Fatalf("Unlock(%d): %v", tok, err)
	}
}

// TestMutualExclusion is the headline property: G goroutines each do M
// Lock/increment/Unlock cycles on a plain (non-atomic) counter; mutual
// exclusion and the happens-before edges of the chain make the final
// count exact and race-detector clean.
func TestMutualExclusion(t *testing.T) {
	const (
		workers = 8
		iters   = 300
	)
	m := newTestMutex(t, workers)
	counter := 0 // deliberately unguarded except by m
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p := proc(m, id)
			for i := 0; i < iters; i++ {
				tok := lock(t, p)
				counter++
				unlock(t, p, tok)
			}
		}(w)
	}
	wg.Wait()
	if counter != workers*iters {
		t.Fatalf("counter = %d, want %d (mutual exclusion violated)", counter, workers*iters)
	}
	if st := m.Stats(); st.Rounds != workers*iters {
		t.Errorf("rounds = %d, want %d", st.Rounds, workers*iters)
	}
}

// TestMutexRMRAccounting: an arena built with Config.CountRMRs surfaces
// per-proc RMR tallies through MutexProc, bounded by the step count (a
// step is at most one remote reference in either model); the default
// arena reports zero.
func TestMutexRMRAccounting(t *testing.T) {
	const (
		workers = 4
		iters   = 50
	)
	run := func(count bool) []*MutexProc {
		a, err := New(Config{N: workers, Shards: 2, Prealloc: 2, Factory: logStarFactory, CountRMRs: count})
		if err != nil {
			t.Fatal(err)
		}
		m := NewMutex(a)
		procs := make([]*MutexProc, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			procs[w] = proc(m, w)
			wg.Add(1)
			go func(p *MutexProc) {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					unlock(t, p, lock(t, p))
				}
			}(procs[w])
		}
		wg.Wait()
		return procs
	}
	for _, p := range run(true) {
		// CC is necessarily positive (a round's first write claims an
		// unowned line); DSM may be zero for a proc that always arrived
		// first and so owns the home of every line it touched.
		if p.CCRMRs() <= 0 {
			t.Errorf("counting proc reports %d CC RMRs, want positive", p.CCRMRs())
		}
		if p.CCRMRs() > p.Steps() || p.DSMRMRs() > p.Steps() {
			t.Errorf("RMRs exceed steps: %d CC, %d DSM, %d steps", p.CCRMRs(), p.DSMRMRs(), p.Steps())
		}
	}
	for _, p := range run(false) {
		if p.CCRMRs() != 0 || p.DSMRMRs() != 0 {
			t.Errorf("default proc reports (%d CC, %d DSM) RMRs, want zero", p.CCRMRs(), p.DSMRMRs())
		}
	}
}

// TestTokensStrictlyMonotone is the fencing property test: across
// blocking locks, TryLock probes, clean releases and forced revocations
// from many goroutines, every grant's token must be strictly larger
// than every earlier grant's — no reuse, no regression, even across
// lease-expiry-style handovers.
func TestTokensStrictlyMonotone(t *testing.T) {
	const (
		workers = 8
		iters   = 200
	)
	m := newTestMutex(t, workers)
	var lastTok atomic.Uint64
	var revokes atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p := proc(m, id)
			for i := 0; i < iters; i++ {
				var tok uint64
				if id%2 == 0 {
					var ok bool
					if tok, ok = p.TryLock(); !ok {
						continue
					}
				} else {
					tok = lock(t, p)
				}
				// Strict monotonicity: the previous max must be below us,
				// and we must be able to install ourselves as the new max.
				for {
					prev := lastTok.Load()
					if prev >= tok {
						t.Errorf("token %d granted at or below an earlier token %d", tok, prev)
						return
					}
					if lastTok.CompareAndSwap(prev, tok) {
						break
					}
				}
				switch i % 3 {
				case 0:
					// Simulate lease expiry: revoke our own grant, then
					// observe the fenced release.
					if !m.Revoke(tok) {
						t.Errorf("Revoke(%d) of a held token failed", tok)
						return
					}
					revokes.Add(1)
					if err := p.Unlock(tok); !errors.Is(err, ErrFenced) {
						t.Errorf("Unlock after Revoke = %v, want ErrFenced", err)
						return
					}
				default:
					unlock(t, p, tok)
				}
			}
		}(w)
	}
	wg.Wait()
	if revokes.Load() == 0 {
		t.Fatal("property run exercised no revocations")
	}
	if st := m.Stats(); st.Expirations != revokes.Load() {
		t.Errorf("expirations = %d, want %d", st.Expirations, revokes.Load())
	}
}

// TestRevoke: a revoked holder is fenced, waiters get the lock, and a
// token that no longer owns the lock cannot be revoked again.
func TestRevoke(t *testing.T) {
	m := newTestMutex(t, 2)
	p0, p1 := proc(m, 0), proc(m, 1)
	tok := lock(t, p0)
	if got := m.Holder(); got != tok {
		t.Fatalf("Holder() = %d, want %d", got, tok)
	}
	if m.Revoke(tok + 1) {
		t.Fatal("Revoke of a never-granted token succeeded")
	}
	if !m.Revoke(tok) {
		t.Fatal("Revoke of the held token failed")
	}
	if m.Revoke(tok) {
		t.Fatal("double Revoke succeeded")
	}
	if got := m.Holder(); got != 0 {
		t.Fatalf("Holder() after revoke = %d, want 0", got)
	}
	// The waiter proceeds on the force-installed round, with a larger token.
	tok1, ok := p1.TryLock()
	if !ok {
		t.Fatal("TryLock after revoke failed")
	}
	if tok1 <= tok {
		t.Fatalf("post-revoke token %d not above revoked token %d", tok1, tok)
	}
	// The zombie's release is fenced; afterwards it can lock again.
	if err := p0.Unlock(tok); !errors.Is(err, ErrFenced) {
		t.Fatalf("zombie Unlock = %v, want ErrFenced", err)
	}
	unlock(t, p1, tok1)
	tok2 := lock(t, p0)
	if tok2 <= tok1 {
		t.Fatalf("token %d not monotone after fencing (prev %d)", tok2, tok1)
	}
	unlock(t, p0, tok2)
	if st := m.Stats(); st.Expirations != 1 {
		t.Errorf("expirations = %d, want 1", st.Expirations)
	}
}

// TestUnlockTokenErrors: wrong tokens are rejected without releasing,
// and unlocking nothing errors.
func TestUnlockTokenErrors(t *testing.T) {
	m := newTestMutex(t, 2)
	p := proc(m, 0)
	if err := p.Unlock(1); !errors.Is(err, ErrNotHeld) {
		t.Fatalf("Unlock while free = %v, want ErrNotHeld", err)
	}
	tok := lock(t, p)
	if err := p.Unlock(tok + 7); !errors.Is(err, ErrBadToken) {
		t.Fatalf("Unlock with wrong token = %v, want ErrBadToken", err)
	}
	if got := p.Token(); got != tok {
		t.Fatalf("Token() = %d after failed unlock, want %d (lock lost)", got, tok)
	}
	unlock(t, p, tok)
	if got := p.Token(); got != 0 {
		t.Fatalf("Token() after unlock = %d, want 0", got)
	}
	if err := p.Unlock(tok); !errors.Is(err, ErrNotHeld) {
		t.Fatalf("double Unlock = %v, want ErrNotHeld", err)
	}
}

// TestLockContext: a context cancelled while waiting aborts the
// acquisition with the context's error and pays nothing when satisfied
// immediately.
func TestLockContext(t *testing.T) {
	m := newTestMutex(t, 2)
	p0, p1 := proc(m, 0), proc(m, 1)
	tok := lock(t, p0)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := p1.Lock(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Lock under held lock = %v, want DeadlineExceeded", err)
	}
	unlock(t, p0, tok)
	tok1, err := p1.Lock(context.Background())
	if err != nil {
		t.Fatalf("Lock after release: %v", err)
	}
	unlock(t, p1, tok1)
}

// TestRetire: a retired mutex rejects new acquisitions, recycles its
// final slot, and fences any holder that raced the retirement.
func TestRetire(t *testing.T) {
	m := newTestMutex(t, 2)
	p := proc(m, 0)
	tok := lock(t, p)
	if m.Retire() {
		t.Fatal("Retire of a held mutex succeeded")
	}
	unlock(t, p, tok)
	putsBefore := m.Arena().TotalStats().Puts
	if !m.Retire() {
		t.Fatal("Retire of a free mutex failed")
	}
	if !m.Retired() {
		t.Fatal("Retired() false after Retire")
	}
	if got := m.Arena().TotalStats().Puts - putsBefore; got != 1 {
		t.Fatalf("Retire recycled %d slots, want 1", got)
	}
	if _, ok := p.TryLock(); ok {
		t.Fatal("TryLock on a retired mutex succeeded")
	}
	if _, err := p.Lock(context.Background()); !errors.Is(err, ErrRetired) {
		t.Fatalf("Lock on a retired mutex = %v, want ErrRetired", err)
	}
	if m.Retire() {
		t.Fatal("double Retire succeeded")
	}
}

// TestRetireRacingAcquire hammers Retire against concurrent TryLock
// winners: whatever interleaving lands, there is never a moment with
// two live holders, and every winner either releases cleanly or is
// fenced.
func TestRetireRacingAcquire(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		m := newTestMutex(t, 2)
		p := proc(m, 0)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for !m.Retire() {
				runtime.Gosched()
			}
		}()
		go func() {
			defer wg.Done()
			for {
				if tok, ok := p.TryLock(); ok {
					if err := p.Unlock(tok); err != nil && !errors.Is(err, ErrFenced) {
						t.Errorf("Unlock = %v, want nil or ErrFenced", err)
					}
				}
				if m.Retired() {
					return
				}
			}
		}()
		wg.Wait()
	}
}

// TestRecyclingBoundsPool: sustained Lock/Unlock traffic must not grow
// the slot pool — the whole point of the arena.
func TestRecyclingBoundsPool(t *testing.T) {
	const workers = 4
	m := newTestMutex(t, workers)
	before := m.Arena().TotalStats().Slots
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p := proc(m, id)
			for i := 0; i < 500; i++ {
				unlock(t, p, lock(t, p))
			}
		}(w)
	}
	wg.Wait()
	after := m.Arena().TotalStats().Slots
	// Transient stragglers can force a handful of constructions, but the
	// pool must stay O(workers), not O(rounds).
	if after > before+workers {
		t.Errorf("slot pool grew from %d to %d over 2000 rounds — recycling is not keeping up", before, after)
	}
}

// TestTryLock: a held mutex rejects TryLock from the gate word alone,
// without a step on the round's registers; a free one grants it.
func TestTryLock(t *testing.T) {
	m := newTestMutex(t, 2)
	p0, p1 := proc(m, 0), proc(m, 1)
	tok0, ok := p0.TryLock()
	if !ok {
		t.Fatal("TryLock on a free mutex failed")
	}
	steps := p1.Steps()
	if _, ok := p1.TryLock(); ok {
		t.Fatal("TryLock succeeded while the mutex was held")
	}
	if got := p1.Steps(); got != steps {
		t.Errorf("refused probe took %d steps, want 0", got-steps)
	}
	if got := m.Stats().ProbeLosses; got != 1 {
		t.Errorf("probe losses = %d, want 1", got)
	}
	unlock(t, p0, tok0)
	// The refusal counts as p1's one attempt at the old round, but the
	// new round installed by Unlock is fair game.
	tok1, ok := p1.TryLock()
	if !ok {
		t.Fatal("TryLock on a released mutex failed")
	}
	if tok1 != tok0+1 {
		t.Errorf("token after handover = %d, want %d", tok1, tok0+1)
	}
	unlock(t, p1, tok1)
}

// TestLockAfterTryLockLoss: losing a TryLock must not wedge Lock.
func TestLockAfterTryLockLoss(t *testing.T) {
	m := newTestMutex(t, 2)
	p0, p1 := proc(m, 0), proc(m, 1)
	tok0 := lock(t, p0)
	if _, ok := p1.TryLock(); ok {
		t.Fatal("TryLock succeeded while held")
	}
	done := make(chan struct{})
	go func() {
		unlock(t, p1, lock(t, p1))
		close(done)
	}()
	unlock(t, p0, tok0)
	<-done
}

// TestLockWhileHeldPanics: re-entrant Lock on the same proc is a bug, not
// a deadlock.
func TestLockWhileHeldPanics(t *testing.T) {
	m := newTestMutex(t, 2)
	p := proc(m, 0)
	lock(t, p)
	defer func() {
		if recover() == nil {
			t.Fatal("re-entrant Lock did not panic")
		}
	}()
	p.Lock(context.Background())
}

// TestProcIDRange: out-of-range ids are rejected up front.
func TestProcIDRange(t *testing.T) {
	m := newTestMutex(t, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range proc id did not panic")
		}
	}()
	m.Proc(2, concurrent.NewHandle(2, 1))
}

// TestStepsMonotone: the step counter accumulates across rounds.
func TestStepsMonotone(t *testing.T) {
	m := newTestMutex(t, 2)
	p := proc(m, 0)
	last := 0
	for i := 0; i < 5; i++ {
		unlock(t, p, lock(t, p))
		now := p.Steps()
		if now <= last {
			t.Fatalf("steps not monotone: %d after %d at round %d", now, last, i)
		}
		last = now
	}
}

// TestTryLockLossAccounting: failed TryLock probes land in ProbeLosses,
// not Contended — polling must not read as lock contention.
func TestTryLockLossAccounting(t *testing.T) {
	m := newTestMutex(t, 2)
	p0, p1 := proc(m, 0), proc(m, 1)
	tok0 := lock(t, p0)
	for i := 0; i < 3; i++ {
		if _, ok := p1.TryLock(); ok {
			t.Fatal("TryLock succeeded while held")
		}
	}
	st := m.Stats()
	if st.ProbeLosses != 3 {
		t.Errorf("probe losses = %d, want 3", st.ProbeLosses)
	}
	if st.Contended != 0 {
		t.Errorf("contended = %d after TryLock-only losses, want 0", st.Contended)
	}
	unlock(t, p0, tok0)
	tok1, ok := p1.TryLock()
	if !ok {
		t.Fatal("TryLock on a released mutex failed")
	}
	unlock(t, p1, tok1)
	if got := m.Stats().ProbeLosses; got != 3 {
		t.Errorf("probe losses moved to %d after a successful TryLock, want 3", got)
	}
}

// TestSlotChurnStress hammers slot recycling end to end under the race
// detector: workers mix blocking Locks with TryLock polling and
// occasional revocations, forcing rounds to open, close and recycle
// while late arrivals are still bouncing off them. This is the
// dirty-window Reset's adversarial workload — every recycled slot must
// come back pristine, or some round would elect zero or two winners and
// the guarded counter would drift.
func TestSlotChurnStress(t *testing.T) {
	const (
		workers = 8
		iters   = 300
	)
	m := newTestMutex(t, workers)
	counter := 0
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p := proc(m, id)
			<-start
			for i := 0; i < iters; i++ {
				if id%2 == 0 {
					if tok, ok := p.TryLock(); ok {
						counter++
						unlock(t, p, tok)
						continue
					}
				}
				tok := lock(t, p)
				counter++
				runtime.Gosched() // widen the window for churn
				if id%4 == 3 && i%16 == 0 {
					// Lease-expiry churn: force the handover, then make
					// the fenced release.
					if !m.Revoke(tok) {
						t.Errorf("Revoke(%d) of own grant failed", tok)
						return
					}
					if err := p.Unlock(tok); !errors.Is(err, ErrFenced) {
						t.Errorf("Unlock after Revoke = %v, want ErrFenced", err)
						return
					}
					continue
				}
				unlock(t, p, tok)
			}
		}(w)
	}
	close(start)
	wg.Wait()
	if counter != workers*iters {
		t.Fatalf("counter = %d, want %d (slot recycling corrupted a round)", counter, workers*iters)
	}
	st := m.Arena().TotalStats()
	if st.Puts == 0 {
		t.Error("no slots recycled during churn")
	}
	if st.Slots > 2*workers {
		t.Errorf("pool grew to %d slots — recycling not keeping up", st.Slots)
	}
}

// TestContentionStats: under forced contention the loser count moves.
// (Without the barrier and the yield inside the critical section, 200
// uncontended microsecond-scale iterations can fit in one scheduler
// timeslice and the workers never overlap.)
func TestContentionStats(t *testing.T) {
	const workers = 4
	m := newTestMutex(t, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p := proc(m, id)
			<-start
			for i := 0; i < 200; i++ {
				tok := lock(t, p)
				runtime.Gosched() // let waiters pile onto this round
				unlock(t, p, tok)
			}
		}(w)
	}
	close(start)
	wg.Wait()
	st := m.Stats()
	if st.Rounds != workers*200 {
		t.Errorf("rounds = %d, want %d", st.Rounds, workers*200)
	}
	if st.Contended == 0 {
		t.Error("contended = 0 across 800 overlapping rounds — stats not wired")
	}
}
