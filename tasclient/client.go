// Package tasclient is the Go client for tasd (cmd/tasd), the TCP lock
// and leader-election daemon built on randomized test-and-set.
//
// A Client is one participant of the lock service: the server dedicates
// one process slot of its arena to the connection, so each client maps
// to one "process" of the underlying Giakkoupis–Woelfel algorithms.
// Dialing negotiates the protocol version with a HELLO frame (falling
// back transparently to v1 against an old daemon). The synchronous
// methods (Acquire, TryAcquire, Release, Elect, ResetElection, Stats)
// issue one request and await its response; Do submits a pipelined
// batch — all requests in one write, all responses in one pass — which
// the server likewise turns around as a single batch.
//
// # Fencing and leases
//
// Acquire and TryAcquire return the grant's fencing Token — strictly
// monotone per lock — and accept a lease TTL: a client that hangs while
// holding a leased lock is expired by the server, and its eventual
// Release answers ErrFenced. Pass the token to the resources the lock
// guards so they can reject writers whose lease was revoked. Elect
// returns the leadership epoch alongside the verdict; ResetElection
// retires an epoch so the name can elect a fresh leader, fenced by the
// epoch number.
//
// # Overload (protocol v3)
//
// On a v3 connection the client propagates its context deadline to the
// server as the ACQUIRE's remaining wait budget, so the server can stop
// electing on behalf of a caller that already gave up — and an
// overloaded server may refuse to queue an ACQUIRE at all. Both cases
// surface as ErrBusy (check with errors.Is; errors.As against
// *BusyError recovers the server's suggested retry delay). AcquireRetry
// wraps the loop: it honors the retry-after suggestion with seeded
// jitter, falling back to exponential backoff, until the lock is
// granted or ctx is done.
//
// # Contexts
//
// Every operation takes a context; its deadline (or cancellation) is
// enforced on the connection I/O. A context that fires mid-operation
// leaves the stream without a known frame boundary, so the client marks
// itself broken and every later call fails — close it and dial again.
// This is the right trade for a lock service: after a timed-out ACQUIRE
// the grant may or may not have happened, and abandoning the connection
// lets the server's disconnect recovery (or the lease) resolve it.
//
// A Client is not safe for concurrent use: it represents a single
// process, and interleaving two goroutines' requests on one connection
// would interleave their lock ownership. Open one Client per goroutine
// that needs an independent participant.
package tasclient

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/dst"
	"repro/internal/rng"
	"repro/internal/wire"
)

// Token is a fencing token (or election epoch) granted by the server;
// see the package comment. Zero is never a valid token.
type Token = uint64

// ErrFenced reports an operation whose token or epoch was superseded:
// the lease expired and the lock moved on, or the election was reset
// past the given epoch. The wrapped response carries the current fence.
var ErrFenced = errors.New("tasclient: fenced (token or epoch superseded)")

// ErrBroken reports a client whose stream was abandoned mid-operation
// (context expiry or transport error); dial a fresh one.
var ErrBroken = errors.New("tasclient: connection broken by an earlier error")

// ErrBusy reports an ACQUIRE the server refused to wait out: admission
// control shed it, or the propagated deadline expired server-side.
// Match with errors.Is; errors.As against *BusyError recovers the
// server's suggested retry delay. The connection is fine — only this
// operation was refused.
var ErrBusy = errors.New("tasclient: request shed by overloaded server")

// ErrNameTooLong reports a lock or election name longer than the wire
// format's 255-byte limit. It fails the operation before any bytes are
// written, so the connection stays usable.
var ErrNameTooLong = wire.ErrNameTooLong

// ErrHandshakeTimeout reports a DialContext whose connect+HELLO
// exchange outlasted HandshakeTimeout against an unresponsive (e.g.
// black-holed) endpoint.
var ErrHandshakeTimeout = errors.New("tasclient: handshake timed out")

// HandshakeTimeout bounds DialContext's connect+HELLO exchange when the
// caller's context carries no deadline of its own, so a dial against a
// black-holed address cannot hang forever. A package variable rather
// than a constant so tests (and unusual deployments) can tune it.
var HandshakeTimeout = 10 * time.Second

// BusyError is the concrete error behind ErrBusy.
type BusyError struct {
	// Op and Name identify the refused operation.
	Op   string
	Name string
	// RetryAfter is the server's suggested delay before retrying
	// (0 when the server offered none).
	RetryAfter time.Duration
}

func (e *BusyError) Error() string {
	if e.RetryAfter > 0 {
		return fmt.Sprintf("tasclient: %s %q shed by overloaded server (retry after %v)", e.Op, e.Name, e.RetryAfter)
	}
	return fmt.Sprintf("tasclient: %s %q shed by overloaded server", e.Op, e.Name)
}

// Is lets errors.Is(err, ErrBusy) match.
func (e *BusyError) Is(target error) bool { return target == ErrBusy }

// Op is one operation of a pipelined batch.
type Op struct {
	// Code is one of the wire opcodes re-exported below.
	Code byte
	// Name is the lock or election name (ignored for OpStats).
	Name string
	// TTL is the lease duration for OpAcquire/OpTryAcquire (0 = no
	// lease; rounded up to a millisecond), or the renewed lease for
	// OpExtend (required positive there).
	TTL time.Duration
	// Token is the fencing token for OpRelease (0 = let the server use
	// its own record, the v1 behavior) and for OpExtend (required).
	Token Token
	// Epoch is the compare-and-bump guard for OpElectReset.
	Epoch uint64
	// Wait is an explicit server-side wait budget for OpAcquire,
	// OpTryAcquire and the election ops (rounded up to a millisecond;
	// requires a v3 server): the server answers — grant, BUSY, or abort
	// — within roughly this long. 0 defers to the batch context's
	// deadline, which is propagated automatically on v3 connections.
	Wait time.Duration
}

// Re-exported opcodes for building Do batches.
const (
	OpAcquire    = wire.OpAcquire
	OpTryAcquire = wire.OpTryAcquire
	OpRelease    = wire.OpRelease
	OpElect      = wire.OpElect
	OpStats      = wire.OpStats
	OpElectEpoch = wire.OpElectEpoch
	OpElectReset = wire.OpElectReset
	OpExtend     = wire.OpExtend
)

// Result is one operation's outcome within a Do batch.
type Result struct {
	// OK reports plain success: the lock was acquired or released, the
	// election ran, the stats arrived.
	OK bool
	// Busy reports a lost TRYACQUIRE probe, or (protocol v3) an ACQUIRE
	// the server shed under overload or deadline expiry (OK is false).
	Busy bool
	// RetryAfter is the server's suggested retry delay on a v3 Busy
	// answer (0 when none was offered).
	RetryAfter time.Duration
	// Fenced reports a superseded token or epoch (OK is false); Token
	// carries the current fence the server answered with.
	Fenced bool
	// Leader reports an ELECT/ELECTEPOCH win (meaningful when OK).
	Leader bool
	// Token is the granted fencing token (ACQUIRE/TRYACQUIRE on a v2
	// connection), the current epoch (ELECTRESET), or the fence that
	// superseded the caller (Fenced responses).
	Token Token
	// Epoch is the election epoch participated in (OpElectEpoch).
	Epoch uint64
	// Err is the server's error message, "" when none.
	Err string
	// Payload is the raw response payload (JSON for OpStats).
	Payload []byte
}

// Stats is the decoded STATS snapshot; see the wire package for field
// documentation.
type Stats = wire.Stats

// Client is one connection to a tasd server. Not safe for concurrent
// use; see the package comment.
type Client struct {
	nc      net.Conn
	br      *bufio.Reader
	nextID  uint32
	wbuf    []byte
	version uint32
	broken  error
	clock   dst.Clock
	jitter  rng.SplitMix64 // KeepAlive retry jitter; see SetBackoffSeed
}

// clientSeq decorrelates the default KeepAlive jitter streams of clients
// created in one process. Under a deterministic simulation the dial
// order is itself deterministic, so the default stays replayable; tests
// and simulations that want full control call SetBackoffSeed.
var clientSeq atomic.Uint64

// DialContext connects to a tasd server at addr ("host:port") and
// negotiates the protocol version with a HELLO frame. A pre-v2 daemon
// rejects HELLO and closes the connection, so the client transparently
// redials once and proceeds in v1 mode (no leases, no tokens on the
// wire — Version reports what was agreed).
//
// When ctx carries no deadline of its own, the whole exchange — TCP
// connect, HELLO, the v1 fallback redial — is bounded by
// HandshakeTimeout, so a black-holed endpoint (connect accepted by the
// listen backlog, nothing ever answering) surfaces as
// ErrHandshakeTimeout instead of hanging forever.
func DialContext(ctx context.Context, addr string) (*Client, error) {
	if _, ok := ctx.Deadline(); !ok && HandshakeTimeout > 0 {
		hctx, cancel := context.WithTimeout(ctx, HandshakeTimeout)
		defer cancel()
		c, err := dialHello(hctx, addr)
		// hctx holds the only deadline in play, but the conn's read
		// deadline (derived from it) can fire a beat before the context
		// timer flips — a deadline-flavored error here is the handshake
		// timeout either way.
		if err != nil && ctx.Err() == nil &&
			(hctx.Err() != nil || errors.Is(err, os.ErrDeadlineExceeded)) {
			return nil, fmt.Errorf("%w after %v: %v", ErrHandshakeTimeout, HandshakeTimeout, err)
		}
		return c, err
	}
	return dialHello(ctx, addr)
}

func dialHello(ctx context.Context, addr string) (*Client, error) {
	nc, err := dialTCP(ctx, addr)
	if err != nil {
		return nil, err
	}
	c, err := NewClientConn(ctx, nc)
	// A pre-v2 server rejects HELLO one of two ways, then hangs up: its
	// strict v1 frame check trips on the 4-byte version trailer
	// ("protocol error: wire: request frame …"), or — were the trailer
	// ever dropped — the opcode itself is foreign ("unknown opcode 6").
	// Either way, fall back to protocol v1 on a fresh connection.
	// Anything else ("server full: …") is a real refusal to surface.
	var ref *helloRefusal
	if !errors.As(err, &ref) || !(strings.HasPrefix(ref.msg, "unknown opcode") || strings.HasPrefix(ref.msg, "protocol error")) {
		return c, err
	}
	if nc, err = dialTCP(ctx, addr); err != nil {
		return nil, err
	}
	c = newClient(nc)
	c.version = 1
	return c, nil
}

func dialTCP(ctx context.Context, addr string) (net.Conn, error) {
	var d net.Dialer
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true) // request frames are tiny; don't wait to coalesce
	}
	return nc, nil
}

// helloRefusal is a HELLO the server answered with an error frame.
type helloRefusal struct{ msg string }

func (e *helloRefusal) Error() string { return "tasclient: " + e.msg }

// newClient wraps nc in a Client that has not negotiated yet.
func newClient(nc net.Conn) *Client {
	return &Client{nc: nc, br: bufio.NewReaderSize(nc, 64<<10), version: wire.Version, clock: dst.Real, jitter: rng.New(clientSeq.Add(1))}
}

// NewClientConn speaks the tasd protocol over an existing connection —
// the injection point for the deterministic-simulation fabric (or any
// custom transport). Unlike DialContext there is no v1 redial fallback:
// the transport cannot be redialed here, so a server that rejects HELLO
// surfaces as an error.
func NewClientConn(ctx context.Context, nc net.Conn) (*Client, error) {
	c := newClient(nc)
	res, err := c.do(ctx, []Op{{Code: wire.OpHello}})
	switch {
	case err != nil:
	case res[0].Err != "":
		err = &helloRefusal{msg: res[0].Err}
	case !res[0].OK:
		err = errors.New("tasclient: unexpected HELLO status")
	default:
		if v, ok := wire.ParseHelloPayload(res[0].Payload); ok && v >= 1 {
			c.version = v
			return c, nil
		}
		err = errors.New("tasclient: malformed HELLO response")
	}
	nc.Close()
	return nil, err
}

// SetClock swaps the clock KeepAlive paces its heartbeats with (nil
// restores the wall clock). A simulated client injects its virtual
// clock here so renewal timing is deterministic.
func (c *Client) SetClock(clk dst.Clock) {
	if clk == nil {
		clk = dst.Real
	}
	c.clock = clk
}

// SetBackoffSeed reseeds the jitter stream KeepAlive's retry backoff
// draws from. The default seed is unique per client within the process;
// a deterministic simulation injects its own seed here (alongside
// SetClock) so retry timing replays byte-identically.
func (c *Client) SetBackoffSeed(seed uint64) { c.jitter = rng.New(seed) }

// Version reports the negotiated protocol version.
func (c *Client) Version() int { return int(c.version) }

// Close closes the connection. Locks still held by this client are
// recovered (released) by the server.
func (c *Client) Close() error { return c.nc.Close() }

// arm applies ctx to the connection: an already-set deadline maps to a
// conn deadline, and a later cancellation wakes any blocked I/O by
// moving the deadline into the past. The returned disarm must run when
// the operation finishes.
func (c *Client) arm(ctx context.Context) (disarm func()) {
	if ctx == nil || ctx.Done() == nil {
		return func() {}
	}
	if d, ok := ctx.Deadline(); ok {
		c.nc.SetDeadline(d)
	}
	fired := make(chan struct{})
	stop := context.AfterFunc(ctx, func() {
		c.nc.SetDeadline(time.Unix(1, 0)) // wake blocked reads/writes now
		close(fired)
	})
	return func() {
		if !stop() {
			// The callback already started: wait for its deadline write
			// to land before clearing, or a cancellation racing a
			// completed operation would poison the connection's
			// deadline for every later call.
			<-fired
		}
		c.nc.SetDeadline(time.Time{})
	}
}

// Do executes a pipelined batch: every request is written in one
// syscall, then every response is read, in order. The returned slice
// has one Result per op. The error is non-nil only for transport,
// protocol or context failures — which also break the client; see the
// package comment — while per-operation failures (a busy lock, a fenced
// release, a release-without-acquire) land in the individual Results.
func (c *Client) Do(ctx context.Context, ops []Op) ([]Result, error) {
	return c.do(ctx, ops)
}

func (c *Client) do(ctx context.Context, ops []Op) ([]Result, error) {
	if c.broken != nil {
		return nil, c.broken
	}
	if len(ops) == 0 {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	disarm := c.arm(ctx)
	defer disarm()
	// On a v3 connection the batch context's deadline rides along as each
	// waitable op's server-side budget, so the server stops electing for
	// a caller that already gave up instead of discovering the fact from
	// a dead connection.
	var ctxWait uint32
	if c.version >= 3 {
		if d, ok := ctx.Deadline(); ok {
			if rem := time.Until(d); rem > 0 {
				ctxWait = clampWaitMillis(rem)
			}
		}
	}
	c.wbuf = c.wbuf[:0]
	firstID := c.nextID
	for _, op := range ops {
		if len(op.Name) > wire.MaxName {
			// Checked before any frame of the batch is written, so the
			// stream keeps its frame boundary and the client stays usable.
			return nil, fmt.Errorf("tasclient: %s: %w (%d bytes)", wire.OpName(op.Code), ErrNameTooLong, len(op.Name))
		}
		req := wire.Request{Op: op.Code, ID: c.nextID, Name: op.Name, Token: op.Token, Epoch: op.Epoch}
		if op.Code == wire.OpHello {
			req.Version = wire.Version
		}
		if op.TTL > 0 {
			ms := (op.TTL + time.Millisecond - 1) / time.Millisecond
			if ms > 1<<31 {
				return nil, fmt.Errorf("tasclient: lease TTL %v too large", op.TTL)
			}
			req.TTLMillis = uint32(ms)
		}
		switch op.Code {
		case OpAcquire, OpTryAcquire, OpElect, OpElectEpoch, OpElectReset:
			if op.Wait > 0 {
				if c.version < 3 {
					return nil, fmt.Errorf("tasclient: wait budgets need protocol v3, server negotiated v%d", c.version)
				}
				req.WaitMillis = clampWaitMillis(op.Wait)
			} else {
				req.WaitMillis = ctxWait
			}
		}
		var err error
		c.wbuf, err = wire.AppendRequest(c.wbuf, req)
		if err != nil {
			return nil, err
		}
		c.nextID++
	}
	if _, err := c.nc.Write(c.wbuf); err != nil {
		return nil, c.fail(ctx, err)
	}
	results := make([]Result, len(ops))
	for i := range ops {
		resp, err := wire.ReadResponse(c.br, 0)
		if err != nil {
			return nil, c.fail(ctx, fmt.Errorf("tasclient: reading response %d/%d: %w", i+1, len(ops), err))
		}
		if resp.ID != firstID+uint32(i) {
			return nil, c.fail(ctx, fmt.Errorf("tasclient: response id %d, want %d (stream desynchronized)", resp.ID, firstID+uint32(i)))
		}
		r := Result{Payload: resp.Payload}
		switch resp.Status {
		case wire.StatusOK:
			r.OK = true
			switch ops[i].Code {
			case OpAcquire, OpTryAcquire, OpElectReset, OpExtend:
				if tok, ok := wire.ParseTokenPayload(resp.Payload); ok {
					r.Token = tok
				}
			case OpElect, OpElectEpoch:
				if leader, epoch, ok := wire.ParseElectPayload(resp.Payload); ok {
					r.Leader, r.Epoch = leader, epoch
				}
			}
		case wire.StatusBusy:
			r.Busy = true
			if ms, ok := wire.ParseBusyPayload(resp.Payload); ok {
				r.RetryAfter = time.Duration(ms) * time.Millisecond
			}
		case wire.StatusFenced:
			r.Fenced = true
			if tok, ok := wire.ParseTokenPayload(resp.Payload); ok {
				r.Token = tok
			}
		case wire.StatusError:
			r.Err = string(resp.Payload)
		default:
			return nil, c.fail(ctx, fmt.Errorf("tasclient: unknown response status %d", resp.Status))
		}
		results[i] = r
	}
	return results, nil
}

// fail marks the client broken: the stream has no known frame boundary
// anymore. Context expiry is reported as the context's error.
func (c *Client) fail(ctx context.Context, err error) error {
	if ctxErr := ctx.Err(); ctxErr != nil {
		var nerr net.Error
		if errors.As(err, &nerr) && nerr.Timeout() {
			err = ctxErr
		}
	}
	c.broken = fmt.Errorf("%w: %v", ErrBroken, err)
	return err
}

// one runs a single operation and folds server-side errors into error.
func (c *Client) one(ctx context.Context, op Op) (Result, error) {
	res, err := c.do(ctx, []Op{op})
	if err != nil {
		return Result{}, err
	}
	if res[0].Fenced {
		return res[0], fmt.Errorf("%w: %s %q (current fence %d)", ErrFenced, wire.OpName(op.Code), op.Name, res[0].Token)
	}
	if res[0].Busy && op.Code == OpAcquire {
		// A shed ACQUIRE is an error (the caller asked for a blocking
		// grant); a busy TRYACQUIRE probe stays a plain false answer.
		return res[0], &BusyError{Op: wire.OpName(op.Code), Name: op.Name, RetryAfter: res[0].RetryAfter}
	}
	if res[0].Err != "" {
		return res[0], fmt.Errorf("tasclient: %s %q: %s", wire.OpName(op.Code), op.Name, res[0].Err)
	}
	return res[0], nil
}

// Acquire blocks until the named lock is held by this client (or ctx is
// done) and returns the grant's fencing token. A positive ttl attaches
// a lease: if this client then neither releases nor disconnects within
// ttl, the server expires the grant — waiters proceed, and this
// client's Release answers ErrFenced. ttl requires a v2 server.
func (c *Client) Acquire(ctx context.Context, name string, ttl time.Duration) (Token, error) {
	if err := c.checkLease(ttl); err != nil {
		return 0, err
	}
	res, err := c.one(ctx, Op{Code: OpAcquire, Name: name, TTL: ttl})
	if err != nil {
		return 0, err
	}
	return res.Token, nil
}

// AcquireWithin is Acquire with an explicit server-side wait budget:
// the server answers within roughly wait — the grant if the lock came
// free in time, ErrBusy otherwise. Unlike a bare context deadline, the
// refusal is a clean per-operation answer: the connection survives and
// the next call proceeds on it. Requires a v3 server.
func (c *Client) AcquireWithin(ctx context.Context, name string, ttl, wait time.Duration) (Token, error) {
	if err := c.checkLease(ttl); err != nil {
		return 0, err
	}
	if wait <= 0 {
		return 0, fmt.Errorf("tasclient: AcquireWithin requires a positive wait")
	}
	res, err := c.one(ctx, Op{Code: OpAcquire, Name: name, TTL: ttl, Wait: wait})
	if err != nil {
		return 0, err
	}
	return res.Token, nil
}

// AcquireRetry's backoff window when the server's BUSY answer carries
// no pacing suggestion of its own.
const (
	acquireRetryBase = 5 * time.Millisecond
	acquireRetryCap  = 500 * time.Millisecond
)

// AcquireRetry acquires the named lock, absorbing overload: every
// ErrBusy answer — the server shed the request, or the propagated
// deadline expired there — is retried until the grant lands or ctx is
// done. When the server suggested a retry delay, the client honors it
// and adds jitter on top (never retrying early); otherwise it falls
// back to the same seeded exponential backoff KeepAlive uses, so a
// simulation replays the pacing byte-identically. Any non-busy error
// returns as-is.
func (c *Client) AcquireRetry(ctx context.Context, name string, ttl time.Duration) (Token, error) {
	retries := 0
	for {
		tok, err := c.Acquire(ctx, name, ttl)
		var busy *BusyError
		if !errors.As(err, &busy) {
			return tok, err
		}
		delay := busy.RetryAfter
		if delay > 0 {
			// Jitter only stretches the server's suggestion, so a shed
			// fleet neither returns early nor returns in lockstep.
			delay += time.Duration(c.jitter.Intn(int(delay/2) + 1))
		} else {
			delay = c.backoffDelay(retries, acquireRetryBase, acquireRetryCap)
		}
		retries++
		if err := c.sleep(ctx, delay); err != nil {
			return 0, err
		}
	}
}

// TryAcquire makes one non-blocking attempt at the named lock,
// reporting the fencing token and whether it is now held. ttl behaves
// as in Acquire.
func (c *Client) TryAcquire(ctx context.Context, name string, ttl time.Duration) (Token, bool, error) {
	if err := c.checkLease(ttl); err != nil {
		return 0, false, err
	}
	res, err := c.one(ctx, Op{Code: OpTryAcquire, Name: name, TTL: ttl})
	if err != nil {
		return 0, false, err
	}
	return res.Token, res.OK, nil
}

func (c *Client) checkLease(ttl time.Duration) error {
	if ttl > 0 && c.version < 2 {
		return fmt.Errorf("tasclient: lease TTLs need protocol v2, server negotiated v%d", c.version)
	}
	return nil
}

// Release releases the named lock, verifying tok against the grant the
// server recorded. ErrFenced (check with errors.Is) means the token was
// superseded — the lease expired, or tok belongs to an earlier grant.
// Token 0 releases whatever the server recorded (the v1 behavior).
func (c *Client) Release(ctx context.Context, name string, tok Token) error {
	_, err := c.one(ctx, Op{Code: OpRelease, Name: name, Token: tok})
	return err
}

// Extend renews the lease on a held lock: the grant identified by tok
// gets a fresh ttl measured from now. Token-addressed, not
// connection-addressed — any client may renew any live grant it knows
// the token of, so a heartbeat can run on its own connection. ErrFenced
// means the grant is gone: the lease already expired, the lock was
// released, or tok was never current. Requires a v2 server.
func (c *Client) Extend(ctx context.Context, name string, tok Token, ttl time.Duration) error {
	if c.version < 2 {
		return fmt.Errorf("tasclient: Extend needs protocol v2, server negotiated v%d", c.version)
	}
	if tok == 0 || ttl <= 0 {
		return fmt.Errorf("tasclient: Extend requires a fencing token and a positive TTL")
	}
	_, err := c.one(ctx, Op{Code: OpExtend, Name: name, Token: tok, TTL: ttl})
	return err
}

// KeepAlive renews the lease on a held lock every ttl/3 until ctx is
// done (returning nil) or the lease is genuinely lost (returning the
// error — ErrFenced once the grant is superseded). It blocks the
// calling goroutine and owns the client's stream while it runs, so run
// it on a dedicated Client; Extend is token-addressed, so a separate
// connection renews another connection's grant just fine. The ttl/3
// cadence leaves two missed heartbeats plus the server's sweep
// granularity of slack before the lease can expire.
//
// A transient renewal failure (a server error response that neither
// fences the token nor breaks the stream) does not kill the heartbeat:
// KeepAlive retries with exponential backoff plus jitter — paced by the
// client's clock and drawn from its seeded jitter stream, so a
// simulation drives it deterministically — for as long as the lease
// could still be alive (the time since the last successful renewal is
// under ttl). Only then is the lease declared lost and the last error
// returned. A broken stream (ErrBroken, transport failure) is terminal
// immediately: this connection cannot carry another renewal, so the
// caller must redial and re-extend before the lease runs out.
//
// Cancellation is watched with the wall clock; a simulated client
// should pass context.Background() and bound the heartbeat's life by
// closing the connection (the renewal then fails and KeepAlive
// returns).
func (c *Client) KeepAlive(ctx context.Context, name string, tok Token, ttl time.Duration) error {
	if c.version < 2 {
		return fmt.Errorf("tasclient: KeepAlive needs protocol v2, server negotiated v%d", c.version)
	}
	if tok == 0 || ttl <= 0 {
		return fmt.Errorf("tasclient: KeepAlive requires a fencing token and a positive TTL")
	}
	interval := ttl / 3
	lastOK := c.clock.Now()
	delay := interval
	retries := 0
	for {
		if err := c.sleep(ctx, delay); err != nil {
			return nil
		}
		err := c.Extend(ctx, name, tok, ttl)
		if err == nil {
			lastOK = c.clock.Now()
			delay = interval
			retries = 0
			continue
		}
		if ctx.Err() != nil {
			return nil // cancelled mid-renewal
		}
		if errors.Is(err, ErrFenced) || c.broken != nil {
			// Fenced: the grant is gone for sure. Broken: the stream is
			// poisoned, no retry can travel over it.
			return err
		}
		// Transient: back off, and give up once the lease cannot have
		// survived until the next retry.
		delay = c.backoffDelay(retries, interval/8, interval)
		retries++
		if c.clock.Since(lastOK)+delay >= ttl {
			return err // the lease is lost before another retry could land
		}
	}
}

// backoffDelay is the shared retry pacing for KeepAlive and
// AcquireRetry: exponential from base (doubled once per prior retry),
// capped at max, then jittered uniformly into [delay/2, delay] from the
// client's seeded stream — so a fleet recovering from one hiccup
// doesn't re-dogpile the server, and a simulation replays the sequence
// byte-identically.
func (c *Client) backoffDelay(retries int, base, max time.Duration) time.Duration {
	delay := base
	if delay <= 0 {
		delay = time.Millisecond
	}
	for i := 0; i < retries && delay < max; i++ {
		delay *= 2
	}
	if delay > max {
		delay = max
	}
	return delay/2 + time.Duration(c.jitter.Intn(int(delay/2)+1))
}

// clampWaitMillis rounds d up to whole milliseconds, saturating at the
// wire field's uint32 range.
func clampWaitMillis(d time.Duration) uint32 {
	ms := (d + time.Millisecond - 1) / time.Millisecond
	if ms >= 1<<32 {
		return 1<<32 - 1
	}
	return uint32(ms)
}

// sleep pauses for d on the client's clock, cut short by ctx. A context
// that can't be cancelled sleeps purely on the clock — the path a
// simulated client must take, since a wall-clock timer would stall the
// virtual schedule.
func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	if ctx.Done() == nil {
		c.clock.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Elect joins the named election's current epoch and reports whether
// this client leads it, plus the epoch number (the leadership fencing
// value). Within one epoch, repeating the call returns the same answer;
// after a ResetElection the client participates afresh. Against a v1
// server the epoch is always 0 and the election is decided once,
// forever.
func (c *Client) Elect(ctx context.Context, name string) (leader bool, epoch uint64, err error) {
	code := byte(OpElectEpoch)
	if c.version < 2 {
		code = OpElect
	}
	res, err := c.one(ctx, Op{Code: code, Name: name})
	if err != nil {
		return false, 0, err
	}
	return res.Leader, res.Epoch, nil
}

// ResetElection retires the named election's given epoch and returns
// the now-current one: the old epoch's leadership ends, a fresh
// election opens, and every client may participate again. ErrFenced
// means epoch was already reset past (the returned epoch is current).
// Requires a v2 server.
func (c *Client) ResetElection(ctx context.Context, name string, epoch uint64) (uint64, error) {
	if c.version < 2 {
		return 0, fmt.Errorf("tasclient: ResetElection needs protocol v2, server negotiated v%d", c.version)
	}
	res, err := c.one(ctx, Op{Code: OpElectReset, Name: name, Epoch: epoch})
	if err != nil {
		return res.Token, err
	}
	return res.Token, nil
}

// Stats fetches the server's counter snapshot.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	res, err := c.one(ctx, Op{Code: OpStats})
	if err != nil {
		return Stats{}, err
	}
	var st Stats
	if err := json.Unmarshal(res.Payload, &st); err != nil {
		return Stats{}, fmt.Errorf("tasclient: decoding STATS: %w", err)
	}
	return st, nil
}
