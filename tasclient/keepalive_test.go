package tasclient

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dst"
	"repro/internal/wire"
)

// fakeClock is a manually-advanced dst.Clock: Sleep advances virtual
// time by exactly the requested duration and records it, so a KeepAlive
// run's whole pacing schedule is captured without any real waiting.
type fakeClock struct {
	mu     sync.Mutex
	now    time.Time
	sleeps []time.Duration
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *fakeClock) Since(t time.Time) time.Duration { return f.Now().Sub(t) }

func (f *fakeClock) Sleep(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if d > 0 {
		f.now = f.now.Add(d)
	}
	f.sleeps = append(f.sleeps, d)
}

func (f *fakeClock) AfterFunc(d time.Duration, fn func()) dst.Timer { return noopTimer{} }
func (f *fakeClock) Go(fn func())                                   { go fn() }
func (f *fakeClock) Idle(*dst.Wait)                                 {}

func (f *fakeClock) Await(ctx context.Context, done <-chan struct{}) error {
	return dst.Real.Await(ctx, done)
}

func (f *fakeClock) recorded() []time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]time.Duration(nil), f.sleeps...)
}

type noopTimer struct{}

func (noopTimer) Stop() bool { return false }

// fakeExtendServer speaks just enough v2 protocol for a KeepAlive run:
// it answers HELLO, then scripts each EXTEND's status in order
// (StatusError is a transient failure, StatusFenced a lost lease; the
// script's end defaults to StatusOK). extends counts EXTENDs served.
func fakeExtendServer(t *testing.T, script []byte, extends *atomic.Int32) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		for {
			req, err := wire.ReadRequest(nc, 0)
			if err != nil {
				return
			}
			resp := wire.Response{Status: wire.StatusOK, ID: req.ID}
			switch req.Op {
			case wire.OpHello:
				resp.Payload = wire.HelloPayload(wire.Version)
			case wire.OpExtend:
				i := int(extends.Add(1)) - 1
				if i < len(script) {
					switch script[i] {
					case wire.StatusError:
						resp.Status = wire.StatusError
						resp.Payload = []byte("backpressure: retry")
					case wire.StatusFenced:
						resp.Status = wire.StatusFenced
						resp.Payload = wire.TokenPayload(99)
					}
				}
			}
			nc.Write(wire.AppendResponse(nil, resp))
		}
	}()
	return ln.Addr().String()
}

// keepAliveSleeps runs one full KeepAlive episode against a scripted
// server on a fake clock and returns its error, the recorded sleep
// schedule, and how many EXTENDs the server saw.
func keepAliveSleeps(t *testing.T, script []byte, seed uint64, ttl time.Duration) (error, []time.Duration, int32) {
	t.Helper()
	var extends atomic.Int32
	addr := fakeExtendServer(t, script, &extends)
	c, err := DialContext(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fc := &fakeClock{}
	c.SetClock(fc)
	c.SetBackoffSeed(seed)
	kaErr := c.KeepAlive(context.Background(), "L", 5, ttl)
	return kaErr, fc.recorded(), extends.Load()
}

// TestKeepAliveRetriesTransientErrors: two transient EXTEND failures
// must not kill the heartbeat — KeepAlive backs off exponentially with
// jitter, resumes the steady ttl/3 cadence after the renewal lands, and
// only a genuine fence ends it.
func TestKeepAliveRetriesTransientErrors(t *testing.T) {
	const ttl = 3 * time.Second
	const interval = ttl / 3
	script := []byte{wire.StatusError, wire.StatusError, wire.StatusOK, wire.StatusFenced}
	err, sleeps, extends := keepAliveSleeps(t, script, 42, ttl)
	if !errors.Is(err, ErrFenced) {
		t.Fatalf("KeepAlive = %v, want ErrFenced", err)
	}
	if extends != 4 {
		t.Fatalf("server saw %d EXTENDs, want 4", extends)
	}
	if len(sleeps) != 4 {
		t.Fatalf("sleep schedule %v has %d entries, want 4", sleeps, len(sleeps))
	}
	if sleeps[0] != interval {
		t.Errorf("first heartbeat sleep = %v, want ttl/3 = %v", sleeps[0], interval)
	}
	// First retry: base interval/8, jittered into [base/2, base).
	if sleeps[1] < interval/16 || sleeps[1] >= interval/8 {
		t.Errorf("retry 1 sleep = %v, want in [%v, %v)", sleeps[1], interval/16, interval/8)
	}
	// Second consecutive retry: doubled base, disjoint above the first.
	if sleeps[2] < interval/8 || sleeps[2] >= interval/4 {
		t.Errorf("retry 2 sleep = %v, want in [%v, %v)", sleeps[2], interval/8, interval/4)
	}
	// The successful renewal resets the cadence and the backoff.
	if sleeps[3] != interval {
		t.Errorf("post-recovery sleep = %v, want %v (cadence not reset)", sleeps[3], interval)
	}
}

// TestKeepAliveBackoffDeterministic: the same seed must reproduce the
// identical pacing schedule — the property the deterministic simulation
// relies on.
func TestKeepAliveBackoffDeterministic(t *testing.T) {
	const ttl = 3 * time.Second
	script := []byte{wire.StatusError, wire.StatusError, wire.StatusError, wire.StatusOK, wire.StatusFenced}
	_, first, _ := keepAliveSleeps(t, script, 7, ttl)
	_, second, _ := keepAliveSleeps(t, script, 7, ttl)
	if len(first) != len(second) {
		t.Fatalf("replay lengths differ: %v vs %v", first, second)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("replay diverged at sleep %d: %v vs %v", i, first, second)
		}
	}
	_, other, _ := keepAliveSleeps(t, script, 8, ttl)
	same := len(other) == len(first)
	for i := 0; same && i < len(first); i++ {
		same = other[i] == first[i]
	}
	if same {
		t.Error("different seeds produced identical jitter schedules")
	}
}

// TestKeepAliveGivesUpWhenLeaseLost: with the server failing every
// renewal, KeepAlive must stop retrying the moment no retry can land
// before the lease expires — and never sleep past the lease's death.
func TestKeepAliveGivesUpWhenLeaseLost(t *testing.T) {
	const ttl = 1200 * time.Millisecond
	script := make([]byte, 32)
	for i := range script {
		script[i] = wire.StatusError
	}
	var extends atomic.Int32
	addr := fakeExtendServer(t, script, &extends)
	c, err := DialContext(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fc := &fakeClock{}
	c.SetClock(fc)
	c.SetBackoffSeed(3)
	kaErr := c.KeepAlive(context.Background(), "L", 5, ttl)
	if kaErr == nil {
		t.Fatal("KeepAlive returned nil with every renewal failing")
	}
	if errors.Is(kaErr, ErrFenced) || errors.Is(kaErr, ErrBroken) {
		t.Fatalf("gave up with %v, want the transient error", kaErr)
	}
	if n := extends.Load(); n < 2 {
		t.Fatalf("server saw %d EXTENDs, want at least one retry beyond the first failure", n)
	}
	// The give-up condition is checked before every retry sleep, so the
	// virtual clock can never pass the lease's expiry while KeepAlive
	// still runs.
	if elapsed := fc.Since(time.Time{}); elapsed >= ttl {
		t.Errorf("KeepAlive ran %v of virtual time, want < ttl %v", elapsed, ttl)
	}
}

// TestKeepAliveCancelledContext: a done context ends the heartbeat with
// nil — cancellation is a clean shutdown, not a lease loss.
func TestKeepAliveCancelledContext(t *testing.T) {
	var extends atomic.Int32
	addr := fakeExtendServer(t, nil, &extends)
	c, err := DialContext(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.KeepAlive(ctx, "L", 5, time.Second); err != nil {
		t.Fatalf("KeepAlive on a cancelled context = %v, want nil", err)
	}
	if n := extends.Load(); n != 0 {
		t.Fatalf("cancelled KeepAlive sent %d EXTENDs, want 0", n)
	}
}

// TestKeepAliveArgumentChecks: a zero token or non-positive TTL is a
// caller bug, reported before any wire traffic.
func TestKeepAliveArgumentChecks(t *testing.T) {
	var extends atomic.Int32
	addr := fakeExtendServer(t, nil, &extends)
	c, err := DialContext(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.KeepAlive(context.Background(), "L", 0, time.Second); err == nil {
		t.Error("KeepAlive with token 0 succeeded")
	}
	if err := c.KeepAlive(context.Background(), "L", 5, 0); err == nil {
		t.Error("KeepAlive with zero TTL succeeded")
	}
	if n := extends.Load(); n != 0 {
		t.Fatalf("argument-check failures sent %d EXTENDs, want 0", n)
	}
}
