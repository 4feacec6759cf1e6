package server_test

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/wire"
	"repro/tasclient"
)

// waitOverload polls the overload counters until pred is satisfied or
// the budget runs out; real-clock tests can't assert an exact tick.
func waitOverload(t *testing.T, s *server.Server, budget time.Duration, pred func(server.OverloadStats) bool) server.OverloadStats {
	t.Helper()
	deadline := time.Now().Add(budget)
	for {
		ov := s.Overload()
		if pred(ov) {
			return ov
		}
		if time.Now().After(deadline) {
			t.Fatalf("overload counters never converged: %+v", ov)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestAdmissionShed: with MaxWaiters=1 the holder's lock admits exactly
// one concurrent acquisition; the next is refused with a typed ErrBusy
// carrying the server's retry-after suggestion — before it ever takes
// an arena round — and the refusal leaves both the connection and the
// admitted waiter intact.
func TestAdmissionShed(t *testing.T) {
	s, addr := start(t, server.Config{MaxClients: 8, MaxWaiters: 1, MaxInflight: 8})
	holder, waiter, extra := dial(t, addr), dial(t, addr), dial(t, addr)

	tok, err := holder.Acquire(bg, "L", 0)
	if err != nil {
		t.Fatal(err)
	}
	// The admitted waiter blocks with a generous wait budget.
	got := make(chan error, 1)
	go func() {
		wtok, werr := waiter.AcquireWithin(bg, "L", 0, 5*time.Second)
		if werr == nil {
			werr = waiter.Release(bg, "L", wtok)
		}
		got <- werr
	}()
	// Admission is visible through the in-flight gauge; only then is the
	// queue actually full.
	waitOverload(t, s, 2*time.Second, func(ov server.OverloadStats) bool { return ov.InflightNow == 1 })

	_, err = extra.AcquireWithin(bg, "L", 0, 5*time.Second)
	if !errors.Is(err, tasclient.ErrBusy) {
		t.Fatalf("over-admission AcquireWithin err = %v, want ErrBusy", err)
	}
	var busy *tasclient.BusyError
	if !errors.As(err, &busy) || busy.RetryAfter <= 0 {
		t.Fatalf("shed carried no retry-after suggestion: %v", err)
	}
	if ov := s.Overload(); ov.Shed != 1 {
		t.Fatalf("Shed = %d, want 1", ov.Shed)
	}
	// The shed was an answer, not a disconnect: the same connection keeps
	// working.
	if _, err := extra.Stats(bg); err != nil {
		t.Fatalf("connection dead after a shed: %v", err)
	}

	if err := holder.Release(bg, "L", tok); err != nil {
		t.Fatal(err)
	}
	if err := <-got; err != nil {
		t.Fatalf("admitted waiter never got the handoff: %v", err)
	}
	ov := waitOverload(t, s, 2*time.Second, func(ov server.OverloadStats) bool { return ov.InflightNow == 0 })
	if ov.QueueDepthHighWater != 1 || ov.InflightHighWater != 1 {
		t.Fatalf("high-waters %d/%d, want 1/1 (recorded on admission only)", ov.QueueDepthHighWater, ov.InflightHighWater)
	}
}

// TestAdmissionInflightBound: MaxInflight is the global budget — a
// waiter admitted on one lock consumes it for every other lock.
func TestAdmissionInflightBound(t *testing.T) {
	s, addr := start(t, server.Config{MaxClients: 8, MaxInflight: 1})
	holder, w1, w2 := dial(t, addr), dial(t, addr), dial(t, addr)

	tokA, err := holder.Acquire(bg, "A", 0)
	if err != nil {
		t.Fatal(err)
	}
	tokB, err := holder.Acquire(bg, "B", 0)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		wtok, werr := w1.AcquireWithin(bg, "A", 0, 5*time.Second)
		if werr == nil {
			werr = w1.Release(bg, "A", wtok)
		}
		got <- werr
	}()
	waitOverload(t, s, 2*time.Second, func(ov server.OverloadStats) bool { return ov.InflightNow == 1 })

	if _, err := w2.AcquireWithin(bg, "B", 0, 5*time.Second); !errors.Is(err, tasclient.ErrBusy) {
		t.Fatalf("global budget exhausted but ACQUIRE of a different lock got %v, want ErrBusy", err)
	}
	if err := holder.Release(bg, "A", tokA); err != nil {
		t.Fatal(err)
	}
	if err := <-got; err != nil {
		t.Fatalf("admitted waiter: %v", err)
	}
	if err := holder.Release(bg, "B", tokB); err != nil {
		t.Fatal(err)
	}
	waitOverload(t, s, 2*time.Second, func(ov server.OverloadStats) bool { return ov.InflightNow == 0 })
}

// TestDeadlineExpiredMidWait: a propagated wait budget that runs out
// while queued behind the holder comes back as ErrBusy — enforced
// server-side, counted as DeadlineExpired (not Shed), with the
// connection intact and the holder's grant untouched.
func TestDeadlineExpiredMidWait(t *testing.T) {
	s, addr := start(t, server.Config{MaxClients: 4, MaxWaiters: 8, MaxInflight: 8})
	holder, waiter := dial(t, addr), dial(t, addr)

	tok, err := holder.Acquire(bg, "L", 0)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	_, err = waiter.AcquireWithin(bg, "L", 0, 40*time.Millisecond)
	if !errors.Is(err, tasclient.ErrBusy) {
		t.Fatalf("expired wait budget returned %v, want ErrBusy", err)
	}
	if elapsed := time.Since(t0); elapsed < 35*time.Millisecond {
		t.Fatalf("refused after %v — before the 40ms budget could have expired", elapsed)
	}
	ov := s.Overload()
	if ov.DeadlineExpired == 0 {
		t.Fatalf("deadline expiry not counted: %+v", ov)
	}
	if ov.Shed != 0 {
		t.Fatalf("mid-wait expiry miscounted as an admission shed: %+v", ov)
	}
	// Holder unaffected, waiter's connection still usable.
	if _, got, err := waiter.TryAcquire(bg, "L", 0); err != nil || got {
		t.Fatalf("TryAcquire after expiry = (%v, %v), want (false, nil)", got, err)
	}
	if err := holder.Release(bg, "L", tok); err != nil {
		t.Fatal(err)
	}
	wtok, err := waiter.Acquire(bg, "L", 0)
	if err != nil {
		t.Fatalf("waiter could not acquire after the holder left: %v", err)
	}
	if err := waiter.Release(bg, "L", wtok); err != nil {
		t.Fatal(err)
	}
	waitOverload(t, s, 2*time.Second, func(ov server.OverloadStats) bool { return ov.InflightNow == 0 })
}

// TestAbortShedRace races every way an ACQUIRE can end under overload
// on the same tick: client-side context expiry (which abandons the
// stream mid-operation), server-side admission shed, server-side wait
// budget expiry, and plain grants — all against a holder that keeps the
// lock pinned in beats. Every attempt must resolve to exactly one of
// {grant, ErrBusy, context expiry}; anything else is a protocol desync.
// Afterwards the admission gauge must read zero and the arena's slot
// population must settle back to one slot per named lock — no outcome
// may leak its reservation or round. Run with -race -cpu=1,4.
func TestAbortShedRace(t *testing.T) {
	s, addr := start(t, server.Config{MaxClients: 64, MaxWaiters: 2, MaxInflight: 8})

	stop := make(chan struct{})
	var holderErr error
	var holderDone sync.WaitGroup
	holderDone.Add(1)
	go func() {
		defer holderDone.Done()
		c, err := tasclient.DialContext(context.Background(), addr)
		if err != nil {
			holderErr = err
			return
		}
		defer c.Close()
		for {
			select {
			case <-stop:
				return
			default:
			}
			tok, err := c.Acquire(bg, "R", 0)
			if errors.Is(err, tasclient.ErrBusy) {
				// The racers beat us to the admission queue; come back.
				time.Sleep(time.Millisecond)
				continue
			}
			if err != nil {
				holderErr = err
				return
			}
			time.Sleep(4 * time.Millisecond)
			if err := c.Release(bg, "R", tok); err != nil {
				holderErr = err
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	const racers = 8
	var grants, busies, cancels, disasters atomic.Int64
	deadline := time.Now().Add(600 * time.Millisecond)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := tasclient.DialContext(context.Background(), addr)
			if err != nil {
				disasters.Add(1)
				t.Errorf("racer %d dial: %v", i, err)
				return
			}
			defer func() {
				if c != nil {
					c.Close()
				}
			}()
			for time.Now().Before(deadline) {
				// The context deadline doubles as the propagated waitMs,
				// so the client-side expiry and the server-side one race
				// for the same instant.
				ctx, cancel := context.WithTimeout(bg, time.Duration(3+i%5)*time.Millisecond)
				tok, err := c.Acquire(ctx, "R", 0)
				cancel()
				switch {
				case err == nil:
					grants.Add(1)
					if rerr := c.Release(bg, "R", tok); rerr != nil {
						disasters.Add(1)
						t.Errorf("racer %d release: %v", i, rerr)
						return
					}
				case errors.Is(err, tasclient.ErrBusy):
					// Shed or server-side expiry: a clean answer, the
					// connection survives.
					busies.Add(1)
				case ctx.Err() != nil:
					// Client gave up first; the stream is mid-operation
					// and unrecoverable — hang up like a crashed client
					// and redial, the disconnect-recovery path.
					cancels.Add(1)
					c.Close()
					c = nil
					for time.Now().Before(deadline) {
						if c, err = tasclient.DialContext(context.Background(), addr); err == nil {
							break
						}
						time.Sleep(time.Millisecond)
					}
					if c == nil {
						return
					}
				default:
					disasters.Add(1)
					t.Errorf("racer %d: outcome outside the contract: %v", i, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	holderDone.Wait()
	if holderErr != nil {
		t.Fatalf("holder: %v", holderErr)
	}
	if disasters.Load() != 0 {
		t.Fatalf("%d attempts resolved outside {grant, busy, cancel}", disasters.Load())
	}
	if grants.Load() == 0 || busies.Load() == 0 {
		t.Fatalf("race too quiet: grants=%d busies=%d cancels=%d (want grants and busies > 0)",
			grants.Load(), busies.Load(), cancels.Load())
	}
	t.Logf("outcomes: grants=%d busies=%d cancels=%d server=%+v", grants.Load(), busies.Load(), cancels.Load(), s.Overload())

	// No residue: the admission gauge returns to zero and the arena's
	// live slot population settles to one slot per named lock — a shed,
	// an expiry, or an abandoned waiter that kept a reservation or a
	// round would pin either forever.
	waitOverload(t, s, 3*time.Second, func(ov server.OverloadStats) bool { return ov.InflightNow == 0 })
	probe := dial(t, addr)
	settleDeadline := time.Now().Add(3 * time.Second)
	for {
		st, err := probe.Stats(bg)
		if err != nil {
			t.Fatal(err)
		}
		outstanding := int64(st.Arena.Hits+st.Arena.Steals+st.Arena.Misses) - int64(st.Arena.Puts)
		want := int64(len(st.Locks) + len(st.Elections))
		if outstanding == want {
			break
		}
		if time.Now().After(settleDeadline) {
			t.Fatalf("arena stuck at %d live slots, want %d — an aborted or shed ACQUIRE leaked its round", outstanding, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// pipeListener turns net.Pipe into a net.Listener, so a test can serve
// over synchronous in-memory connections whose writes block until the
// peer reads — the deadline-capable stand-in for a peer with a full
// receive window.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error { l.once.Do(func() { close(l.done) }); return nil }

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

func (l *pipeListener) dial(t *testing.T) net.Conn {
	t.Helper()
	client, srv := net.Pipe()
	select {
	case l.conns <- srv:
	case <-l.done:
		t.Fatal("pipe listener closed")
	case <-time.After(5 * time.Second):
		t.Fatal("server never accepted the pipe")
	}
	return client
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// TestSlowClientEviction: a peer that stops draining responses stalls a
// flush past Config.WriteTimeout and is evicted — the eviction counter
// moves, and the lock the slow client held is recovered for the next
// well-behaved caller. net.Pipe writes block until the peer reads, so a
// single unread response models the full receive window exactly.
func TestSlowClientEviction(t *testing.T) {
	ln := newPipeListener()
	s, _ := start(t, server.Config{
		MaxClients:   4,
		Listener:     ln,
		WriteTimeout: 50 * time.Millisecond,
	})

	nc := ln.dial(t)
	slow, err := tasclient.NewClientConn(bg, nc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := slow.Acquire(bg, "S", 0); err != nil {
		t.Fatal(err)
	}
	// Go deaf: pipeline one STATS frame straight onto the conn and never
	// read the answer. The response write parks against the unbuffered
	// pipe until the write timeout evicts us.
	buf, err := wire.AppendRequest(nil, wire.Request{Op: wire.OpStats, ID: 99})
	if err != nil {
		t.Fatal(err)
	}
	nc.SetWriteDeadline(time.Now().Add(5 * time.Second))
	if _, err := nc.Write(buf); err != nil {
		t.Fatalf("request write: %v", err)
	}
	ov := waitOverload(t, s, 2*time.Second, func(ov server.OverloadStats) bool { return ov.SlowClientEvictions == 1 })
	if ov.SlowClientEvictions != 1 {
		t.Fatalf("SlowClientEvictions = %d, want 1", ov.SlowClientEvictions)
	}

	// The evicted client's held lock must be recovered through the
	// normal disconnect path: a fresh client can take it.
	fresh, err := tasclient.NewClientConn(bg, ln.dial(t))
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	ctx, cancel := context.WithTimeout(bg, 5*time.Second)
	defer cancel()
	tok, err := fresh.Acquire(ctx, "S", 0)
	if err != nil {
		t.Fatalf("lock held by the evicted slow client was not recovered: %v", err)
	}
	if err := fresh.Release(bg, "S", tok); err != nil {
		t.Fatal(err)
	}
	slow.Close()
}
