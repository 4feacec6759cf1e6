package server_test

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	randtas "repro"
	"repro/internal/dst"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/tasclient"
)

var bg = context.Background()

// start boots a server on an ephemeral loopback port and tears it down
// with the test.
func start(t *testing.T, cfg server.Config) (*server.Server, string) {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Listen(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve() }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
		if v := s.Violations(); v != 0 {
			t.Errorf("server counted %d mutual-exclusion violations", v)
		}
	})
	return s, s.Addr().String()
}

func dial(t *testing.T, addr string) *tasclient.Client {
	t.Helper()
	c, err := tasclient.DialContext(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestHelloNegotiation: dialing negotiates v2, and the negotiated
// version shows up in STATS alongside the v2 counters.
func TestHelloNegotiation(t *testing.T) {
	_, addr := start(t, server.Config{MaxClients: 4})
	c := dial(t, addr)
	if c.Version() != wire.Version {
		t.Fatalf("negotiated version %d, want %d", c.Version(), wire.Version)
	}
	st, err := c.Stats(bg)
	if err != nil {
		t.Fatal(err)
	}
	if st.ProtocolVersion != wire.Version {
		t.Fatalf("stats protocol_version = %d, want %d", st.ProtocolVersion, wire.Version)
	}
	if st.Ops["HELLO"] == 0 {
		t.Fatal("HELLO not counted")
	}
}

// TestDefaultPrealloc: a default server preallocates one arena slot per
// shard, not the arena library's default.
func TestDefaultPrealloc(t *testing.T) {
	_, addr := start(t, server.Config{})
	st, err := dial(t, addr).Stats(bg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Arena.Slots != 4 {
		t.Fatalf("arena slots at start = %d, want 4 (one per default shard)", st.Arena.Slots)
	}
}

// TestAcquireRelease: the basic lifecycle with fencing tokens — grants
// return strictly monotone tokens, releases verify them, and lock state
// is visible to a second client via TryAcquire.
func TestAcquireRelease(t *testing.T) {
	_, addr := start(t, server.Config{MaxClients: 4})
	a, b := dial(t, addr), dial(t, addr)

	tokA, err := a.Acquire(bg, "L", 0)
	if err != nil {
		t.Fatal(err)
	}
	if tokA == 0 {
		t.Fatal("grant carried no fencing token")
	}
	if _, got, err := b.TryAcquire(bg, "L", 0); err != nil || got {
		t.Fatalf("TryAcquire on a held lock = (%v, %v), want (false, nil)", got, err)
	}
	if err := a.Release(bg, "L", tokA); err != nil {
		t.Fatal(err)
	}
	tokB, got, err := b.TryAcquire(bg, "L", 0)
	if err != nil || !got {
		t.Fatalf("TryAcquire on a free lock = (%v, %v), want (true, nil)", got, err)
	}
	if tokB <= tokA {
		t.Fatalf("second grant token %d not above first %d", tokB, tokA)
	}
	if err := b.Release(bg, "L", tokB); err != nil {
		t.Fatal(err)
	}

	st, err := a.Stats(bg)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Locks) != 1 || st.Locks[0].Name != "L" || st.Locks[0].Rounds != 2 {
		t.Fatalf("stats = %+v, want lock L with 2 rounds", st.Locks)
	}
	if st.Violations != 0 {
		t.Fatalf("violations = %d", st.Violations)
	}
}

// TestReleaseStaleToken: a RELEASE carrying an earlier grant's token is
// fenced — the live grant is untouched — and a double release of the
// same stale token stays fenced rather than corrupting anything.
func TestReleaseStaleToken(t *testing.T) {
	_, addr := start(t, server.Config{MaxClients: 4})
	c := dial(t, addr)
	tok1, err := c.Acquire(bg, "L", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Release(bg, "L", tok1); err != nil {
		t.Fatal(err)
	}
	tok2, err := c.Acquire(bg, "L", 0)
	if err != nil {
		t.Fatal(err)
	}
	// Stale token: fenced, and the lock is still held by tok2.
	if err := c.Release(bg, "L", tok1); !errors.Is(err, tasclient.ErrFenced) {
		t.Fatalf("stale release = %v, want ErrFenced", err)
	}
	if err := c.Release(bg, "L", tok1); !errors.Is(err, tasclient.ErrFenced) {
		t.Fatalf("double stale release = %v, want ErrFenced", err)
	}
	b := dial(t, addr)
	if _, got, _ := b.TryAcquire(bg, "L", 0); got {
		t.Fatal("lock fell free after fenced releases")
	}
	// The real token still releases.
	if err := c.Release(bg, "L", tok2); err != nil {
		t.Fatal(err)
	}
}

// TestLeaseExpiry: a hung holder's lease is enforced — a waiter gets
// the lock within TTL + sweep slack without the holder disconnecting,
// the zombie's release is fenced end to end, and the counters record
// the expiry.
func TestLeaseExpiry(t *testing.T) {
	srv, addr := start(t, server.Config{MaxClients: 4, LeaseSweep: 2 * time.Millisecond})
	a, b := dial(t, addr), dial(t, addr)

	tok, err := a.Acquire(bg, "L", 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	// The waiter blocks, then must be granted by lease enforcement alone.
	ctx, cancel := context.WithTimeout(bg, 5*time.Second)
	defer cancel()
	t0 := time.Now()
	tokB, err := b.Acquire(ctx, "L", 0)
	if err != nil {
		t.Fatalf("waiter not granted after lease expiry: %v", err)
	}
	if elapsed := time.Since(t0); elapsed > 2*time.Second {
		t.Fatalf("lease enforcement took %v", elapsed)
	}
	if tokB <= tok {
		t.Fatalf("post-expiry token %d not above expired token %d", tokB, tok)
	}
	// The zombie's release answers StatusFenced through the client.
	if err := a.Release(bg, "L", tok); !errors.Is(err, tasclient.ErrFenced) {
		t.Fatalf("zombie release = %v, want ErrFenced", err)
	}
	if err := b.Release(bg, "L", tokB); err != nil {
		t.Fatal(err)
	}
	if n := srv.LeaseExpirations(); n != 1 {
		t.Fatalf("lease expirations = %d, want 1", n)
	}
	st, err := b.Stats(bg)
	if err != nil {
		t.Fatal(err)
	}
	if st.LeaseExpirations != 1 || st.Locks[0].Expirations != 1 {
		t.Fatalf("stats expirations = %d/%d, want 1/1", st.LeaseExpirations, st.Locks[0].Expirations)
	}
	// The fenced connection recovers: a fresh acquire works.
	tok2, err := a.Acquire(bg, "L", 0)
	if err != nil {
		t.Fatalf("fenced connection could not re-acquire: %v", err)
	}
	if err := a.Release(bg, "L", tok2); err != nil {
		t.Fatal(err)
	}
}

// TestLeaseExpiryReacquire: a connection whose grant expired while it
// sat idle may simply ACQUIRE again — the server reaps the fenced grant
// instead of reporting a reentrant acquisition.
func TestLeaseExpiryReacquire(t *testing.T) {
	_, addr := start(t, server.Config{MaxClients: 4, LeaseSweep: 2 * time.Millisecond})
	a := dial(t, addr)
	tok, err := a.Acquire(bg, "L", 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	// Wait out the lease without releasing.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := a.Stats(bg)
		if err != nil {
			t.Fatal(err)
		}
		if st.LeaseExpirations >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("lease never expired")
		}
		time.Sleep(5 * time.Millisecond)
	}
	tok2, err := a.Acquire(bg, "L", 0)
	if err != nil {
		t.Fatalf("re-acquire after expiry: %v", err)
	}
	if tok2 <= tok {
		t.Fatalf("re-acquire token %d not above expired %d", tok2, tok)
	}
	if err := a.Release(bg, "L", tok2); err != nil {
		t.Fatal(err)
	}
}

// TestDisconnectWhileBlockedRacingLease: a waiter that hangs up while
// blocked on a leased lock, just as the lease expires, must neither
// wedge the lock nor leak its slot — whatever side wins the race, the
// lock stays grantable and the slot comes back.
func TestDisconnectWhileBlockedRacingLease(t *testing.T) {
	_, addr := start(t, server.Config{MaxClients: 2, LeaseSweep: time.Millisecond})
	// Slots from the previous iteration recycle asynchronously after
	// Close, so every fresh dial here must tolerate a transient
	// "server full".
	redial := func() *tasclient.Client {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			c, err := tasclient.DialContext(context.Background(), addr)
			if err == nil {
				return c
			}
			if time.Now().After(deadline) {
				t.Fatalf("dial never admitted: %v", err)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	for i := 0; i < 5; i++ {
		a := redial()
		if _, err := a.Acquire(bg, "L", 30*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		b := redial()
		acquireDone := make(chan struct{})
		go func() {
			ctx, cancel := context.WithTimeout(bg, time.Second)
			defer cancel()
			b.Acquire(ctx, "L", 0) // may win (lease expiry) or abort (we hang up)
			close(acquireDone)
		}()
		// Let B block server-side, then hang up right around the expiry.
		time.Sleep(25 * time.Millisecond)
		b.Close()
		<-acquireDone
		a.Close() // zombie holder goes too; its fenced grant is recovered

		// Both slots must come back and the lock must be grantable.
		deadline := time.Now().Add(5 * time.Second)
		for {
			c, err := tasclient.DialContext(context.Background(), addr)
			if err == nil {
				tok, got, tryErr := c.TryAcquire(bg, "L", 0)
				if tryErr == nil && got {
					c.Release(bg, "L", tok)
					c.Close()
					break
				}
				err = tryErr
				c.Close()
			}
			if time.Now().After(deadline) {
				t.Fatalf("lock or slot never recovered: %v", err)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// TestBlockingAcquireHandoff: a blocked ACQUIRE is granted when the
// holder releases.
func TestBlockingAcquireHandoff(t *testing.T) {
	_, addr := start(t, server.Config{MaxClients: 4})
	a, b := dial(t, addr), dial(t, addr)
	tokA, err := a.Acquire(bg, "L", 0)
	if err != nil {
		t.Fatal(err)
	}
	type grant struct {
		tok tasclient.Token
		err error
	}
	got := make(chan grant, 1)
	go func() {
		tok, err := b.Acquire(bg, "L", 0)
		got <- grant{tok, err}
	}()
	select {
	case g := <-got:
		t.Fatalf("Acquire returned %+v while the lock was held", g)
	case <-time.After(50 * time.Millisecond):
	}
	if err := a.Release(bg, "L", tokA); err != nil {
		t.Fatal(err)
	}
	select {
	case g := <-got:
		if g.err != nil {
			t.Fatal(g.err)
		}
		if err := b.Release(bg, "L", g.tok); err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked Acquire not granted after Release")
	}
	// Blocking ACQUIREs must not masquerade as TRYACQUIRE probes in the
	// per-lock stats: the one blocked acquire above counts toward
	// Contended, never ProbeLosses.
	st, err := a.Stats(bg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Locks[0].ProbeLosses != 0 {
		t.Fatalf("probe_losses = %d after a blocking-only workload, want 0", st.Locks[0].ProbeLosses)
	}
}

// TestDisconnectWhileWaitingFreesSlot: a client that hangs up while its
// ACQUIRE is blocked must not occupy its process slot until the lock
// frees — the waiter aborts via the dead-peer probe.
func TestDisconnectWhileWaitingFreesSlot(t *testing.T) {
	_, addr := start(t, server.Config{MaxClients: 2})
	a := dial(t, addr)
	tokA, err := a.Acquire(bg, "L", 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tasclient.DialContext(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	acquireDone := make(chan struct{})
	go func() { b.Acquire(bg, "L", 0); close(acquireDone) }()
	time.Sleep(50 * time.Millisecond) // let B block server-side
	b.Close()
	<-acquireDone
	// A still holds L; B's slot must come back regardless.
	deadline := time.Now().Add(5 * time.Second)
	for {
		c, err := tasclient.DialContext(context.Background(), addr)
		if err == nil {
			tok, got, tryErr := c.TryAcquire(bg, "other", 0)
			if tryErr == nil && got {
				c.Release(bg, "other", tok)
				c.Close()
				break
			}
			err = tryErr
			c.Close()
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot still pinned by a dead waiter: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := a.Release(bg, "L", tokA); err != nil {
		t.Fatal(err)
	}
}

// TestPipelinedBatch: a Do batch spanning several operations and names
// comes back in order with per-op outcomes, tokens included.
func TestPipelinedBatch(t *testing.T) {
	_, addr := start(t, server.Config{MaxClients: 4})
	c := dial(t, addr)
	res, err := c.Do(bg, []tasclient.Op{
		{Code: tasclient.OpAcquire, Name: "a"},
		{Code: tasclient.OpAcquire, Name: "b", TTL: time.Minute},
		{Code: tasclient.OpRelease, Name: "a"},
		{Code: tasclient.OpTryAcquire, Name: "a"},
		{Code: tasclient.OpRelease, Name: "a"},
		{Code: tasclient.OpRelease, Name: "b"},
		{Code: tasclient.OpStats},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if !r.OK {
			t.Fatalf("batch op %d: %+v", i, r)
		}
	}
	if res[0].Token == 0 || res[1].Token == 0 || res[3].Token == 0 {
		t.Fatalf("grants missing tokens: %+v", res)
	}
	if len(res[6].Payload) == 0 {
		t.Fatal("STATS payload empty")
	}
}

// TestProtocolMisuse: RELEASE without ACQUIRE, reentrant ACQUIRE, and
// releases after the fact answer errors without poisoning the
// connection.
func TestProtocolMisuse(t *testing.T) {
	_, addr := start(t, server.Config{MaxClients: 4})
	c := dial(t, addr)
	if err := c.Release(bg, "nope", 0); err == nil {
		t.Fatal("RELEASE without ACQUIRE succeeded")
	}
	tok, err := c.Acquire(bg, "L", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Acquire(bg, "L", 0); err == nil {
		t.Fatal("reentrant ACQUIRE succeeded")
	}
	if err := c.Release(bg, "L", tok); err != nil {
		t.Fatal(err)
	}
	if err := c.Release(bg, "L", tok); err == nil {
		t.Fatal("double RELEASE succeeded")
	}
	// The connection survives all of the above.
	tok2, err := c.Acquire(bg, "L", 0)
	if err != nil {
		t.Fatalf("connection poisoned by protocol errors: %v", err)
	}
	if err := c.Release(bg, "L", tok2); err != nil {
		t.Fatal(err)
	}
}

// TestV1Compat drives the server with hand-built v1 frames — no HELLO,
// no trailers — and expects byte-exact v1 behavior: empty grant
// payloads, 1-byte ELECT payloads, server-tracked release.
func TestV1Compat(t *testing.T) {
	_, addr := start(t, server.Config{MaxClients: 2})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	roundTrip := func(req wire.Request) wire.Response {
		t.Helper()
		buf, err := wire.AppendRequest(nil, req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := nc.Write(buf); err != nil {
			t.Fatal(err)
		}
		resp, err := wire.ReadResponse(nc, 0)
		if err != nil {
			t.Fatal(err)
		}
		if resp.ID != req.ID {
			t.Fatalf("response id %d, want %d", resp.ID, req.ID)
		}
		return resp
	}

	if resp := roundTrip(wire.Request{Op: wire.OpAcquire, ID: 1, Name: "L"}); resp.Status != wire.StatusOK || len(resp.Payload) != 0 {
		t.Fatalf("v1 ACQUIRE = %+v, want OK with empty payload", resp)
	}
	if resp := roundTrip(wire.Request{Op: wire.OpRelease, ID: 2, Name: "L"}); resp.Status != wire.StatusOK {
		t.Fatalf("v1 RELEASE = %+v, want OK (server-tracked token)", resp)
	}
	resp := roundTrip(wire.Request{Op: wire.OpElect, ID: 3, Name: "leader/x"})
	if resp.Status != wire.StatusOK || len(resp.Payload) != 1 || resp.Payload[0] != wire.ElectLeader {
		t.Fatalf("v1 ELECT = %+v, want the 1-byte leader payload", resp)
	}
	// Repeat ELECT sticks, exactly as in PR 4.
	resp = roundTrip(wire.Request{Op: wire.OpElect, ID: 4, Name: "leader/x"})
	if resp.Status != wire.StatusOK || len(resp.Payload) != 1 || resp.Payload[0] != wire.ElectLeader {
		t.Fatalf("repeat v1 ELECT = %+v, want the same 1-byte answer", resp)
	}
}

// TestPartialFrame: a client torn away mid-frame must not wedge the
// server or leak its slot.
func TestPartialFrame(t *testing.T) {
	srv, addr := start(t, server.Config{MaxClients: 1})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	// First 6 bytes of an ACQUIRE frame, then hang up mid-frame.
	nc.Write([]byte{0, 0, 0, 10, 1, 0})
	nc.Close()
	// The single slot must come back: with MaxClients=1 a new client
	// can only be admitted once the torn connection is fully cleaned up.
	deadline := time.Now().Add(5 * time.Second)
	for {
		c, err := tasclient.DialContext(context.Background(), addr)
		if err == nil {
			tok, acqErr := c.Acquire(bg, "L", 0)
			if acqErr == nil {
				c.Release(bg, "L", tok)
				c.Close()
				break
			}
			err = acqErr
			c.Close()
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never recovered after torn connection: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	_ = srv
}

// TestOversizedFrame: a length prefix beyond MaxFrame is answered with
// a protocol error and the connection closes; the server stays up.
func TestOversizedFrame(t *testing.T) {
	_, addr := start(t, server.Config{MaxClients: 2, MaxFrame: 1 << 10})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	var huge [4]byte
	binary.BigEndian.PutUint32(huge[:], 1<<31)
	if _, err := nc.Write(huge[:]); err != nil {
		t.Fatal(err)
	}
	// The server answers an error frame and closes; reading until EOF
	// must terminate (no hang waiting for the claimed gigabytes).
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 4096)
	n, _ := nc.Read(buf)
	if n == 0 {
		t.Fatal("no error frame before close")
	}
	// A fresh client still works.
	c := dial(t, addr)
	tok, err := c.Acquire(bg, "L", 0)
	if err != nil {
		t.Fatal(err)
	}
	c.Release(bg, "L", tok)
}

// TestDisconnectRecoversLock: a client that dies holding a lock has it
// released by the server, so the next client gets in.
func TestDisconnectRecoversLock(t *testing.T) {
	_, addr := start(t, server.Config{MaxClients: 4})
	a := dial(t, addr)
	if _, err := a.Acquire(bg, "L", 0); err != nil {
		t.Fatal(err)
	}
	b := dial(t, addr)
	if _, got, _ := b.TryAcquire(bg, "L", 0); got {
		t.Fatal("lock not actually held")
	}
	a.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		tok, got, err := b.TryAcquire(bg, "L", 0)
		if err != nil {
			t.Fatal(err)
		}
		if got {
			if err := b.Release(bg, "L", tok); err != nil {
				t.Fatal(err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("lock never recovered after holder disconnect")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestElectEpochs: one leader per epoch across concurrent clients,
// stable on repeat; ELECTRESET opens a fresh epoch where a new leader
// (and everyone else) may run again; a stale reset is fenced.
func TestElectEpochs(t *testing.T) {
	_, addr := start(t, server.Config{MaxClients: 8})
	const k = 6
	clients := make([]*tasclient.Client, k)
	for i := range clients {
		clients[i] = dial(t, addr)
	}
	runEpoch := func(wantEpoch uint64) {
		t.Helper()
		leaders := int32(0)
		results := make([]bool, k)
		var wg sync.WaitGroup
		for i := 0; i < k; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				won, epoch, err := clients[i].Elect(bg, "leader/x")
				if err != nil {
					t.Error(err)
					return
				}
				if epoch != wantEpoch {
					t.Errorf("client %d elected in epoch %d, want %d", i, epoch, wantEpoch)
				}
				results[i] = won
				if won {
					atomic.AddInt32(&leaders, 1)
				}
			}(i)
		}
		wg.Wait()
		if leaders != 1 {
			t.Fatalf("epoch %d: %d leaders elected, want exactly 1", wantEpoch, leaders)
		}
		for i, c := range clients {
			won, epoch, err := c.Elect(bg, "leader/x")
			if err != nil {
				t.Fatal(err)
			}
			if won != results[i] || epoch != wantEpoch {
				t.Fatalf("client %d: repeat Elect flipped (%v,%d) -> (%v,%d)", i, results[i], wantEpoch, won, epoch)
			}
		}
	}
	runEpoch(1)
	newEpoch, err := clients[0].ResetElection(bg, "leader/x", 1)
	if err != nil || newEpoch != 2 {
		t.Fatalf("ResetElection(1) = (%d, %v), want (2, nil)", newEpoch, err)
	}
	if got, err := clients[1].ResetElection(bg, "leader/x", 1); !errors.Is(err, tasclient.ErrFenced) || got != 2 {
		t.Fatalf("stale ResetElection = (%d, %v), want (2, ErrFenced)", got, err)
	}
	runEpoch(2)
	st, err := clients[0].Stats(bg)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Elections) != 1 || !st.Elections[0].Decided || st.Elections[0].Epoch != 2 || st.Elections[0].Resets != 1 {
		t.Fatalf("stats elections = %+v, want one decided epoch-2 election with 1 reset", st.Elections)
	}
}

// TestElectSlotReuseNotLeader: a connection on a recycled slot must not
// inherit its dead predecessor's leadership — the per-epoch bitmap
// demotes slot reuse to loser, so there is never more than one live
// client believing it leads an epoch.
func TestElectSlotReuseNotLeader(t *testing.T) {
	_, addr := start(t, server.Config{MaxClients: 1})
	a, err := tasclient.DialContext(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	won, epoch, err := a.Elect(bg, "leader/x")
	if err != nil || !won || epoch != 1 {
		t.Fatalf("sole participant Elect = (%v, %d, %v), want a win in epoch 1", won, epoch, err)
	}
	a.Close()
	// The replacement lands on the same (only) slot.
	deadline := time.Now().Add(5 * time.Second)
	for {
		b, err := tasclient.DialContext(context.Background(), addr)
		if err == nil {
			won, epoch, err := b.Elect(bg, "leader/x")
			if err != nil {
				t.Fatal(err)
			}
			if won {
				t.Fatalf("recycled slot inherited leadership of epoch %d", epoch)
			}
			// Its answer must be stable on repeat, from the conn cache.
			if again, _, _ := b.Elect(bg, "leader/x"); again {
				t.Fatal("repeat Elect flipped to leader")
			}
			b.Close()
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never re-admitted: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestElectResetRace: resets fired concurrently with elections across
// many epochs never double-elect within an epoch and never wedge —
// run under -race this is the epoch machinery's stress test.
func TestElectResetRace(t *testing.T) {
	_, addr := start(t, server.Config{MaxClients: 8})
	const k = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	leaders := sync.Map{} // epoch -> *atomic.Int32
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := dial(t, addr)
			lastCounted := uint64(0) // repeat answers within an epoch are cached; count each win once
			for {
				select {
				case <-stop:
					return
				default:
				}
				won, epoch, err := c.Elect(bg, "leader/race")
				if err != nil {
					t.Error(err)
					return
				}
				if won && epoch != lastCounted {
					lastCounted = epoch
					n, _ := leaders.LoadOrStore(epoch, new(atomic.Int32))
					n.(*atomic.Int32).Add(1)
				}
			}
		}(i)
	}
	resetter := dial(t, addr)
	for i := 0; i < 30; i++ {
		_, epoch, err := resetter.Elect(bg, "leader/race")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := resetter.ResetElection(bg, "leader/race", epoch); err != nil && !errors.Is(err, tasclient.ErrFenced) {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	leaders.Range(func(k, v interface{}) bool {
		if n := v.(*atomic.Int32).Load(); n != 1 {
			t.Errorf("epoch %v elected %d leaders, want 1", k, n)
		}
		return true
	})
}

// TestServerFull: connections beyond MaxClients are refused with an
// error, and a freed slot re-admits.
func TestServerFull(t *testing.T) {
	_, addr := start(t, server.Config{MaxClients: 1})
	a := dial(t, addr)
	tok, err := a.Acquire(bg, "L", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tasclient.DialContext(context.Background(), addr); err == nil {
		t.Fatal("connection beyond MaxClients negotiated HELLO")
	}
	a.Release(bg, "L", tok)
	a.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c, err := tasclient.DialContext(context.Background(), addr)
		if err == nil {
			tok, err := c.Acquire(bg, "L", 0)
			if err == nil {
				c.Release(bg, "L", tok)
				c.Close()
				return
			}
			c.Close()
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never re-admitted: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGracefulShutdown: Shutdown drains connected-but-idle clients and
// completes without force-closing.
func TestGracefulShutdown(t *testing.T) {
	cfg := server.Config{Addr: "127.0.0.1:0", MaxClients: 4, Seed: 1}
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Listen(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve() }()
	addr := s.Addr().String()

	c, err := tasclient.DialContext(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Acquire(bg, "L", 0); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if _, err := tasclient.DialContext(context.Background(), addr); err == nil {
		t.Fatal("listener still accepting after Shutdown")
	}
}

// TestShutdownIdempotent: a second Shutdown (two signals, or a signal
// handler plus deferred cleanup) must drain quietly, not panic on the
// sweeper's stop channel.
func TestShutdownIdempotent(t *testing.T) {
	s, err := server.New(server.Config{Addr: "127.0.0.1:0", MaxClients: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Listen(); err != nil {
		t.Fatal(err)
	}
	go s.Serve()
	ctx, cancel := context.WithTimeout(bg, 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
}

// TestShutdownUnblocksWaiters: even clients deadlocked across two
// locks (A holds x wants y, B holds y wants x) cannot pin a drain —
// blocked ACQUIREs abort and Shutdown completes within its budget.
func TestShutdownUnblocksWaiters(t *testing.T) {
	cfg := server.Config{Addr: "127.0.0.1:0", MaxClients: 4, Seed: 1}
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Listen(); err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve() }()
	addr := s.Addr().String()

	a, err := tasclient.DialContext(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := tasclient.DialContext(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if _, err := a.Acquire(bg, "x", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Acquire(bg, "y", 0); err != nil {
		t.Fatal(err)
	}
	blocked := make(chan struct{}, 2)
	go func() { a.Acquire(bg, "y", 0); blocked <- struct{}{} }()
	go func() { b.Acquire(bg, "x", 0); blocked <- struct{}{} }()
	time.Sleep(50 * time.Millisecond) // let both waiters actually block

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown with deadlocked waiters: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 4*time.Second {
		t.Fatalf("drain took %v with deadlocked waiters", elapsed)
	}
	<-serveDone
	<-blocked
	<-blocked
}

// TestShutdownForceClose: a handler pinned in flush by a peer that
// never reads outlasts Shutdown's deadline. Shutdown then force-closes
// the connection, still waits for the handler's cleanup to recover
// the lock it was granted, and returns the deadline error; Serve
// returns nil.
func TestShutdownForceClose(t *testing.T) {
	ln := newPipeListener()
	s, err := server.New(server.Config{MaxClients: 2, Seed: 1, Listener: ln})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Listen(); err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve() }()

	// The pipe is unbuffered, so the grant's flush blocks for as long
	// as nobody reads it.
	nc := ln.dial(t)
	defer nc.Close()
	buf, err := wire.AppendRequest(nil, wire.Request{Op: wire.OpAcquire, ID: 1, Name: "L"})
	if err != nil {
		t.Fatal(err)
	}
	nc.SetWriteDeadline(time.Now().Add(5 * time.Second))
	if _, err := nc.Write(buf); err != nil {
		t.Fatalf("request write: %v", err)
	}

	ctx, cancel := context.WithTimeout(bg, 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown with a pinned handler = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("forced drain took %v under a 50ms deadline", elapsed)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	checkRecovered(t, s)
}

// TestShutdownForceCloseSim is TestShutdownForceClose on the simulated
// clock and fabric. A one-byte inbound limit on a client that never
// reads parks the handler's second flush, and an already-cancelled
// context sends Shutdown down SimClock.Await's ctx branch: force-close,
// then wait in virtual time for the cleanup. The run must end with no
// actor stuck.
func TestShutdownForceCloseSim(t *testing.T) {
	clk := dst.NewSimClock()
	fab := dst.NewFabric(clk, 1)
	ln, err := fab.Listen("tasd")
	if err != nil {
		t.Fatal(err)
	}
	s, err := server.New(server.Config{MaxClients: 2, Seed: 1, Clock: clk, Listener: ln})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Listen(); err != nil {
		t.Fatal(err)
	}
	var serveErr, shutdownErr error
	clk.Go(func() { serveErr = s.Serve() })
	clk.Go(func() {
		nc, err := fab.Dial("tasd")
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		nc.(*dst.SimConn).LimitInbound(1)
		// The first grant fills the pipe; the second one's flush parks.
		for i, name := range []string{"L", "M"} {
			buf, err := wire.AppendRequest(nil, wire.Request{Op: wire.OpAcquire, ID: uint32(i + 1), Name: name})
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := nc.Write(buf); err != nil {
				t.Errorf("request write: %v", err)
				return
			}
			clk.Sleep(time.Millisecond)
		}
	})
	clk.Go(func() {
		clk.Sleep(10 * time.Millisecond)
		ctx, cancel := context.WithCancel(bg)
		cancel()
		shutdownErr = s.Shutdown(ctx)
	})
	if err := clk.Wait(); err != nil {
		t.Fatalf("simulation: %v", err)
	}
	if !errors.Is(shutdownErr, context.Canceled) {
		t.Fatalf("Shutdown with a pinned handler = %v, want context.Canceled", shutdownErr)
	}
	if serveErr != nil {
		t.Fatalf("Serve: %v", serveErr)
	}
	checkRecovered(t, s)
}

// TestShutdownDuringConnChurn: Shutdown racing clients that keep
// connecting, taking a lock and hanging up must return only after
// every admitted handler has exited — a handler that takes the count
// to zero just before Shutdown starts must not complete the drain for
// a connection admitted after it. Once Shutdown returns no connection
// is counted and no lock is owned. Shutdown starts right after a
// hang-up, while that handler is exiting and the client redials, and
// a short LeaseSweep keeps Shutdown's wait for the sweeper shorter
// than a handler that outlived the drain takes to exit.
func TestShutdownDuringConnChurn(t *testing.T) {
	rounds := 40
	if testing.Short() {
		rounds = 8
	}
	for r := 0; r < rounds; r++ {
		s, err := server.New(server.Config{Addr: "127.0.0.1:0", MaxClients: 4, Seed: int64(r + 1), LeaseSweep: 200 * time.Microsecond})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Listen(); err != nil {
			t.Fatal(err)
		}
		serveDone := make(chan error, 1)
		go func() { serveDone <- s.Serve() }()
		addr := s.Addr().String()

		stop := make(chan struct{})
		hungUp := make(chan struct{}, 1)
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(name string) {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					c, err := tasclient.DialContext(bg, addr)
					if err != nil {
						continue // full, draining or closed: try again until told to stop
					}
					c.Acquire(bg, name, 0) // hang up holding it: the cleanup must recover it
					c.Close()
					select {
					case hungUp <- struct{}{}:
					default:
					}
				}
			}(fmt.Sprintf("L%d", w))
		}

		time.Sleep(time.Duration(r%5) * time.Millisecond)
		select {
		case <-hungUp: // stale: wait for a fresh hang-up
		default:
		}
		<-hungUp
		ctx, cancel := context.WithTimeout(bg, 5*time.Second)
		err = s.Shutdown(ctx)
		cancel()
		active := server.ActiveConns(s)
		owned := 0
		s.VisitLocks(func(_ string, _ *randtas.Mutex, owner uint64, _ int64) {
			if owner != 0 {
				owned++
			}
		})
		close(stop)
		wg.Wait()
		if err != nil {
			t.Fatalf("round %d: Shutdown: %v", r, err)
		}
		if err := <-serveDone; err != nil {
			t.Fatalf("round %d: Serve: %v", r, err)
		}
		if active != 0 || owned != 0 {
			t.Fatalf("round %d: Shutdown returned with %d connections counted and %d locks owned", r, active, owned)
		}
		if v := s.Violations(); v != 0 {
			t.Fatalf("round %d: %d mutual-exclusion violations", r, v)
		}
	}
}

// checkRecovered asserts that a drained server left no lock owned and
// counted no exclusion violation.
func checkRecovered(t *testing.T, s *server.Server) {
	t.Helper()
	s.VisitLocks(func(name string, _ *randtas.Mutex, owner uint64, _ int64) {
		if owner != 0 {
			t.Errorf("lock %q still owned by token %d after the drain", name, owner)
		}
	})
	if v := s.Violations(); v != 0 {
		t.Errorf("server counted %d mutual-exclusion violations", v)
	}
}

// TestStatsTruncation: a STATS snapshot that would overflow a response
// frame is shrunk, flagged, and stays readable.
func TestStatsTruncation(t *testing.T) {
	_, addr := start(t, server.Config{MaxClients: 4, MaxFrame: 1 << 12})
	c := dial(t, addr)
	var batch []tasclient.Op
	for i := 0; i < 64; i++ {
		name := fmt.Sprintf("very/long/lock/name/to/bloat/the/stats/payload-%03d", i)
		batch = append(batch,
			tasclient.Op{Code: tasclient.OpAcquire, Name: name},
			tasclient.Op{Code: tasclient.OpRelease, Name: name},
		)
	}
	if _, err := c.Do(bg, batch); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats(bg)
	if err != nil {
		t.Fatalf("oversized STATS unreadable: %v", err)
	}
	if !st.Truncated {
		t.Fatalf("stats with 64 long-named locks in a 4 KiB frame not truncated (%d locks listed)", len(st.Locks))
	}
	if len(st.Locks) == 64 {
		t.Fatal("Truncated set but nothing dropped")
	}
	if st.Ops["ACQUIRE"] != 64 {
		t.Fatalf("scalar counters must survive truncation; ACQUIRE = %d", st.Ops["ACQUIRE"])
	}
}

// TestStressLoopback is the -race loopback stress: clients hammer a
// small set of named locks with pipelined leased batches while
// connections churn and some holders deliberately let their leases
// lapse, and the server-side owner check must never trip.
func TestStressLoopback(t *testing.T) {
	srv, addr := start(t, server.Config{MaxClients: 16, LeaseSweep: 2 * time.Millisecond})
	const (
		workers  = 8
		locks    = 3
		duration = 300 * time.Millisecond
	)
	deadline := time.Now().Add(duration)
	var wg sync.WaitGroup
	var ops atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for time.Now().Before(deadline) {
				c, err := tasclient.DialContext(context.Background(), addr)
				if err != nil {
					t.Error(err)
					return
				}
				// A few batches per connection, then churn the slot.
				for b := 0; b < 4 && time.Now().Before(deadline); b++ {
					var batch []tasclient.Op
					for i := 0; i < 4; i++ {
						name := fmt.Sprintf("lock-%d", rng.Intn(locks))
						batch = append(batch,
							tasclient.Op{Code: tasclient.OpAcquire, Name: name, TTL: time.Second},
							tasclient.Op{Code: tasclient.OpRelease, Name: name},
						)
					}
					res, err := c.Do(bg, batch)
					if err != nil {
						t.Error(err)
						break
					}
					for i, r := range res {
						if !r.OK {
							t.Errorf("batch op %d failed: %+v", i, r)
						}
					}
					ops.Add(int64(len(res)))
				}
				// Half the time disconnect while holding a lock — with a
				// tiny lease, so disconnect recovery races expiry.
				if rng.Intn(2) == 0 {
					c.Acquire(bg, fmt.Sprintf("lock-%d", rng.Intn(locks)), 5*time.Millisecond)
					if rng.Intn(2) == 0 {
						time.Sleep(8 * time.Millisecond) // lease lapses first
					}
				}
				c.Close()
			}
		}(w)
	}
	wg.Wait()
	if v := srv.Violations(); v != 0 {
		t.Fatalf("%d mutual-exclusion violations under stress", v)
	}
	t.Logf("stress: %d ops, %d expiries, %d violations", ops.Load(), srv.LeaseExpirations(), srv.Violations())
}

// TestExtendLease: EXTEND pushes a lease deadline forward so a renewed
// grant outlives its original TTL; it is token-addressed (any
// connection can renew), and a wrong, stale, or unknown token is
// fenced without touching the live lease.
func TestExtendLease(t *testing.T) {
	srv, addr := start(t, server.Config{MaxClients: 4, LeaseSweep: 2 * time.Millisecond})
	a, b := dial(t, addr), dial(t, addr)

	ttl := 400 * time.Millisecond
	tok, err := a.Acquire(bg, "L", ttl)
	if err != nil {
		t.Fatal(err)
	}
	// Renew well past the original deadline: 3×TTL of holding with
	// renewals every TTL/4 must never let the sweeper fire.
	until := time.Now().Add(3 * ttl)
	for time.Now().Before(until) {
		if err := a.Extend(bg, "L", tok, ttl); err != nil {
			t.Fatalf("renewal refused mid-lease: %v", err)
		}
		time.Sleep(ttl / 4)
	}
	if n := srv.LeaseExpirations(); n != 0 {
		t.Fatalf("renewed lease expired %d time(s)", n)
	}
	// Token-addressed: a different connection renews the same grant.
	if err := b.Extend(bg, "L", tok, ttl); err != nil {
		t.Fatalf("renewal from a second connection: %v", err)
	}
	// A wrong token is fenced; so is a name that was never acquired.
	if err := b.Extend(bg, "L", tok+1, ttl); !errors.Is(err, tasclient.ErrFenced) {
		t.Fatalf("wrong-token EXTEND = %v, want ErrFenced", err)
	}
	if err := b.Extend(bg, "never-acquired", 99, ttl); !errors.Is(err, tasclient.ErrFenced) {
		t.Fatalf("unknown-name EXTEND = %v, want ErrFenced", err)
	}
	if err := a.Release(bg, "L", tok); err != nil {
		t.Fatal(err)
	}
	// After release the token is dead: renewing it is fenced.
	if err := a.Extend(bg, "L", tok, ttl); !errors.Is(err, tasclient.ErrFenced) {
		t.Fatalf("EXTEND of a released token = %v, want ErrFenced", err)
	}
}

// TestEviction: a name left idle past MaxIdle is retired by the
// sweeper's eviction pass, drops out of STATS, and is usable afresh
// with a new incarnation.
func TestEviction(t *testing.T) {
	srv, addr := start(t, server.Config{
		MaxClients: 4,
		LeaseSweep: time.Millisecond,
		MaxIdle:    10 * time.Millisecond,
	})
	a := dial(t, addr)
	tok, err := a.Acquire(bg, "E", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Release(bg, "E", tok); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Registry().Evictions() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("idle name never evicted")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// The retired entry is purged from the stats listing.
	for {
		st, err := a.Stats(bg)
		if err != nil {
			t.Fatal(err)
		}
		listed := false
		for _, l := range st.Locks {
			if l.Name == "E" {
				listed = true
			}
		}
		if !listed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("evicted name still listed in stats: %+v", st.Locks)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// The name comes back fresh and fully usable.
	tok2, err := a.Acquire(bg, "E", 0)
	if err != nil {
		t.Fatalf("acquire after eviction: %v", err)
	}
	if err := a.Release(bg, "E", tok2); err != nil {
		t.Fatal(err)
	}
}

// TestKeepAliveRealClock: the client-side heartbeat holds a lease under
// the real clock, and cancelling its context stops it cleanly — after
// which the lease lapses on schedule.
func TestKeepAliveRealClock(t *testing.T) {
	srv, addr := start(t, server.Config{MaxClients: 4, LeaseSweep: 2 * time.Millisecond})
	a, hb := dial(t, addr), dial(t, addr)

	ttl := 300 * time.Millisecond
	tok, err := a.Acquire(bg, "K", ttl)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(bg)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- hb.KeepAlive(ctx, "K", tok, ttl) }()

	time.Sleep(5 * ttl / 2) // far past the unrenewed deadline
	if n := srv.LeaseExpirations(); n != 0 {
		t.Fatalf("lease expired %d time(s) under KeepAlive", n)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("cancelled KeepAlive = %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("KeepAlive did not return after cancellation")
	}
	// Unrenewed now: the sweeper must enforce the lease.
	deadline := time.Now().Add(5 * time.Second)
	for srv.LeaseExpirations() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("lease never expired after KeepAlive stopped")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := a.Release(bg, "K", tok); !errors.Is(err, tasclient.ErrFenced) {
		t.Fatalf("zombie release = %v, want ErrFenced", err)
	}
}
