package arena

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// abortRaceConfigs are the mutex variants the abort protocol must hold
// on. Every arena slot fronts its election with the doorway, so there is
// one.
func abortRaceConfigs(n int) map[string]Config {
	return map[string]Config{
		"doorway": {N: n, Shards: 2, Prealloc: 2, Factory: logStarFactory},
	}
}

// outstandingSlots is the arena's live-slot population: every Get minus
// every Put. A mutex at rest pins exactly one slot (its current round);
// anything above that is a leaked round — a winnerless round that was
// never recovered, or a straggler that never dropped its reference.
func outstandingSlots(a *Arena) int64 {
	st := a.TotalStats()
	return int64(st.Hits+st.Steals+st.Misses) - int64(st.Puts)
}

// TestAbortWinRace races Abort against the winner's claim: every trial
// launches all procs into a blocking acquisition and immediately aborts
// every one of them, so aborts land before the election, inside it, and
// after the win, in whatever interleaving the scheduler produces. The
// invariants that must survive any of them: mutual exclusion (the
// unguarded counter), no proc stuck (every LockWhile returns), exact
// win accounting (counter == recorded wins), and no leaked slots once
// the dust settles.
func TestAbortWinRace(t *testing.T) {
	const (
		workers = 6
		trials  = 120
	)
	for name, cfg := range abortRaceConfigs(workers) {
		t.Run(name, func(t *testing.T) {
			a, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			m := NewMutex(a)
			procs := make([]*MutexProc, workers)
			for i := range procs {
				procs[i] = proc(m, i)
			}
			counter := 0 // guarded only by m; the race detector audits it
			var wins atomic.Int64
			for trial := 0; trial < trials; trial++ {
				start := make(chan struct{})
				var wg sync.WaitGroup
				for _, p := range procs {
					wg.Add(1)
					go func(p *MutexProc) {
						defer wg.Done()
						<-start
						if tok, ok := p.LockWhile(nil); ok {
							counter++
							wins.Add(1)
							unlock(t, p, tok)
						}
					}(p)
				}
				close(start)
				// Abort everyone — including, on the right interleaving,
				// a proc whose claim CAS is in flight. A winner that beat
				// its abort returns the lock; everyone else must come
				// back with (0, false).
				for _, p := range procs {
					p.Abort()
				}
				wg.Wait()
			}
			if int64(counter) != wins.Load() {
				t.Fatalf("counter = %d but %d wins recorded — exclusion violated", counter, wins.Load())
			}
			st := m.Stats()
			if st.Aborts == 0 {
				t.Error("no acquisition resolved by abort across the whole race")
			}
			if got := outstandingSlots(a); got != 1 {
				t.Errorf("outstanding slots = %d after drain, want 1 (leaked round)", got)
			}
			// Stale abort flags from wins that beat their abort must not
			// wedge a later Lock: it consumes them and re-enters.
			tok, err := procs[0].Lock(context.Background())
			if err != nil {
				t.Fatalf("Lock after the storm: %v", err)
			}
			unlock(t, procs[0], tok)
		})
	}
}

// TestAbortWinnerlessRecovery drives the deterministic winnerless-round
// path: a TryLock with the abort flag already set enters the round, its
// TAS resolves by abort without writing done, and the refcount drain
// leaves an open round with zero participants and no winner. The mutex
// must recover it in place of the winner that never was — successor
// installed, slot recycled, gate free — and keep doing so for every
// further aborted probe.
func TestAbortWinnerlessRecovery(t *testing.T) {
	m := newTestMutex(t, 2)
	p := proc(m, 0)
	first := m.cur.Load().seq

	p.Abort()
	for i := 1; i <= 2; i++ {
		if tok, ok := p.TryLock(); ok || tok != 0 {
			t.Fatalf("aborted TryLock #%d = (%d, %v), want (0, false)", i, tok, ok)
		}
		st := m.Stats()
		if st.Aborts != uint64(i) {
			t.Fatalf("aborts = %d after %d aborted probes", st.Aborts, i)
		}
		if st.Recovered != uint64(i) {
			t.Fatalf("recovered = %d after %d winnerless rounds", st.Recovered, i)
		}
		if got := m.Holder(); got != 0 {
			t.Fatalf("holder = %d after recovery, want 0 (gate leaked)", got)
		}
		if got := m.cur.Load().seq; got != first+uint64(i) {
			t.Fatalf("round seq = %d after %d recoveries, want %d", got, i, first+uint64(i))
		}
		if got := outstandingSlots(m.Arena()); got != 1 {
			t.Fatalf("outstanding slots = %d after recovery, want 1", got)
		}
	}

	// Rearmed, the proc wins the recovered chain's current round, and the
	// token is monotone across the winnerless rounds.
	p.h.ClearAbort()
	tok, ok := p.TryLock()
	if !ok {
		t.Fatal("TryLock after recovery failed")
	}
	if tok != first+2 {
		t.Fatalf("post-recovery token = %d, want %d (recovered rounds must consume seqs)", tok, first+2)
	}
	unlock(t, p, tok)
	if got := outstandingSlots(m.Arena()); got != 1 {
		t.Fatalf("outstanding slots = %d at rest, want 1", got)
	}
}

// TestAbortConsumedOnce: one Abort cancels exactly one acquisition. The
// flag set while idle fails the next LockWhile; the one after that must
// proceed unaided.
func TestAbortConsumedOnce(t *testing.T) {
	m := newTestMutex(t, 2)
	p := proc(m, 0)
	p.Abort()
	if _, ok := p.LockWhile(nil); ok {
		t.Fatal("aborted LockWhile acquired the mutex")
	}
	tok, ok := p.LockWhile(nil)
	if !ok {
		t.Fatal("LockWhile after a consumed abort failed — the flag leaked")
	}
	unlock(t, p, tok)
	if st := m.Stats(); st.Aborts != 1 {
		t.Errorf("aborts = %d, want 1", st.Aborts)
	}
}

// abortLatencyBudget is the test's bound on how long a parked waiter may
// take to observe its cancellation. The protocol bound is dst.MaxPark
// plus one wake; the budget is generous for oversubscribed CI machines
// but far below the unbounded parks the bound exists to rule out.
const abortLatencyBudget = 100 * time.Millisecond

// TestAbortWakesParkedWaiter: a waiter parked behind a held lock must
// observe an Abort within the hard latency bound — the wake channel cuts
// the park short rather than letting the timer run out.
func TestAbortWakesParkedWaiter(t *testing.T) {
	m := newTestMutex(t, 2)
	p0, p1 := proc(m, 0), proc(m, 1)
	tok := lock(t, p0)
	done := make(chan bool, 1)
	go func() {
		_, ok := p1.LockWhile(nil)
		done <- ok
	}()
	time.Sleep(20 * time.Millisecond) // let p1 lose the round and park
	begin := time.Now()
	p1.Abort()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("aborted waiter reported a win")
		}
	case <-time.After(abortLatencyBudget):
		t.Fatalf("parked waiter did not observe Abort within %v", abortLatencyBudget)
	}
	if elapsed := time.Since(begin); elapsed > abortLatencyBudget {
		t.Fatalf("abort latency %v exceeds budget %v", elapsed, abortLatencyBudget)
	}
	unlock(t, p0, tok)
	unlock(t, p1, lock(t, p1))
}

// TestStopFlipObservedWhileParked is the regression test for the waiter
// that slept past its stop predicate flipping true: a parked LockWhile
// waiter must re-check stop within dst.MaxPark-scale latency, not
// whenever the round happens to change.
func TestStopFlipObservedWhileParked(t *testing.T) {
	m := newTestMutex(t, 2)
	p0, p1 := proc(m, 0), proc(m, 1)
	tok := lock(t, p0)
	var stop atomic.Bool
	done := make(chan bool, 1)
	go func() {
		_, ok := p1.LockWhile(stop.Load)
		done <- ok
	}()
	time.Sleep(20 * time.Millisecond) // p1 is parked behind the held lock
	stop.Store(true)
	select {
	case ok := <-done:
		if ok {
			t.Fatal("stopped waiter reported a win")
		}
	case <-time.After(abortLatencyBudget):
		t.Fatalf("parked waiter did not observe its stop flip within %v", abortLatencyBudget)
	}
	// Giving up via stop is not an abort; the counters must not conflate
	// the two cancellation channels.
	if st := m.Stats(); st.Aborts != 0 {
		t.Errorf("aborts = %d after a stop-based giveup, want 0", st.Aborts)
	}
	unlock(t, p0, tok)
}

// TestLockContextCancelLatency: a context cancel must unpark a blocked
// Lock within the same bound — the AfterFunc abort reaches through the
// park, not just the next round transition.
func TestLockContextCancelLatency(t *testing.T) {
	m := newTestMutex(t, 2)
	p0, p1 := proc(m, 0), proc(m, 1)
	tok := lock(t, p0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errs := make(chan error, 1)
	go func() {
		_, err := p1.Lock(ctx)
		errs <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-errs:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled Lock = %v, want context.Canceled", err)
		}
	case <-time.After(abortLatencyBudget):
		t.Fatalf("blocked Lock did not observe cancel within %v", abortLatencyBudget)
	}
	// Whether the exit took the stop predicate (ctx.Err flips before the
	// AfterFunc fires) or the abort flag is a race both sides may win;
	// either way the proc must be reusable immediately.
	unlock(t, p0, tok)
	unlock(t, p1, lock(t, p1))
}

// TestAbortStressMixed is the long-haul soak: half the procs churn
// Lock/Unlock, the other half get aborted in waves by a chaos goroutine
// while they block. Exclusion, full drain and slot accounting must all
// hold at the end, whatever interleavings the scheduler found.
func TestAbortStressMixed(t *testing.T) {
	const (
		workers = 8
		iters   = 200
	)
	m := newTestMutex(t, workers)
	counter := 0
	var wins atomic.Int64
	procs := make([]*MutexProc, workers)
	for i := range procs {
		procs[i] = proc(m, i)
	}
	var wg sync.WaitGroup
	stopChaos := make(chan struct{})
	var chaos sync.WaitGroup
	chaos.Add(1)
	go func() {
		defer chaos.Done()
		for {
			select {
			case <-stopChaos:
				return
			default:
			}
			for i := 1; i < workers; i += 2 {
				procs[i].Abort()
			}
			runtime.Gosched()
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(p *MutexProc, id int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				tok, ok := p.LockWhile(nil)
				if !ok {
					continue // aborted; try again next iteration
				}
				counter++
				wins.Add(1)
				unlock(t, p, tok)
			}
		}(procs[w], w)
	}
	wg.Wait()
	close(stopChaos)
	chaos.Wait()
	if int64(counter) != wins.Load() {
		t.Fatalf("counter = %d but %d wins recorded — exclusion violated", counter, wins.Load())
	}
	st := m.Stats()
	if st.Aborts == 0 {
		t.Error("chaos waves produced no aborts")
	}
	if got := outstandingSlots(m.Arena()); got != 1 {
		t.Errorf("outstanding slots = %d after drain, want 1", got)
	}
}
