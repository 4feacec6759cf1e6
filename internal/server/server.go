// Package server implements tasd, the TCP lock and leader-election
// daemon over the randtas arena: the first layer of this repository
// that serves the paper's randomized TAS objects to clients *outside*
// the process.
//
// # Model
//
// Every connection owns one process slot — one id in [0, MaxClients) of
// the arena's N — for its whole lifetime, so the wait-free guarantees
// of the underlying algorithms apply per connection exactly as they
// apply per process in the paper. Named objects come from a
// randtas.Registry: ACQUIRE/TRYACQUIRE/RELEASE drive the named fenced
// TAS-chaining mutexes (rounds recycled through the arena free lists),
// ELECT/ELECTEPOCH/ELECTRESET drive the named epoch'd elections, STATS
// snapshots every counter as JSON.
//
// # Fencing and leases (protocol v2)
//
// Every grant returns the round's strictly monotone fencing token, and
// a v2 RELEASE carries the token back for verification: a mismatch is
// answered StatusFenced, never silently honored. An ACQUIRE may attach
// a lease TTL; a dedicated sweeper goroutine expires overdue leases by
// winning the per-lock owner word (a CAS against the exact granted
// token — tokens never repeat, so there is no ABA) and force-installing
// the successor round via Mutex.Revoke. The fenced holder's eventual
// RELEASE answers StatusFenced, and a fenced connection that ACQUIREs
// again is quietly cleaned up first — a hung-then-recovered client
// needs no special casing. v1 connections cannot attach leases and so
// are never fenced.
//
// # Version negotiation
//
// A v2 client's first frame is HELLO carrying the highest version it
// speaks; the server answers with the connection's negotiated version
// (min of the two) and switches response shapes accordingly: v2
// connections receive fencing tokens in grant payloads and epochs in
// election payloads, v1 connections receive the exact PR 4 byte shapes.
// Old clients simply never send HELLO and keep working.
//
// # Overload (protocol v3)
//
// Under offered load beyond capacity the server sheds and bounds rather
// than queueing without limit. Admission control (Config.MaxWaiters,
// Config.MaxInflight) refuses excess ACQUIREs with StatusBusy plus a
// retry-after suggestion before they ever take an arena round. A v3
// ACQUIRE may carry the client's remaining deadline (waitMs); when it
// expires mid-wait the server aborts the waiter through the elector
// (MutexProc.Abort — the PR 7 machinery) so the slot recycles instead
// of electing for a caller that already gave up. Writes run under
// Config.WriteTimeout: a peer that stops draining responses is evicted
// through the normal disconnect-recovery path. v1/v2 connections never
// see the new shapes — sheds answer them with a plain error frame.
//
// # Batching
//
// Each connection is served by one goroutine. The request loop blocks
// for the first frame, then drains every complete frame already
// buffered — a pipelining client's whole batch — processes them
// back-to-back as a single arena pass, and writes all responses in one
// write. A blocking ACQUIRE first flushes the batch's earlier
// responses, so pipelined predecessors are never delayed by a
// contended lock.
//
// # Recovery and verification
//
// A connection that dies while holding locks has them released by the
// server (the deferred cleanup runs in the same goroutine, preserving
// the MutexProc confinement rule), so a crashed client cannot wedge a
// lock — and a merely *hung* client is bounded by its lease. Mutex and
// election procs are retained per (object, slot) across connections: a
// recycled slot id resumes its predecessor's bookkeeping instead of
// violating the one-TAS-per-round (or per-epoch) contracts. Every
// successful acquisition is additionally checked server-side against a
// per-lock owner word keyed by fencing token; a failed check increments
// the STATS violations counter — the continuously verified
// mutual-exclusion invariant that cmd/tasbench -mode=net asserts on.
package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	randtas "repro"
	"repro/internal/dst"
	"repro/internal/wire"
)

// Config sizes a Server.
type Config struct {
	// Addr is the TCP listen address (default "127.0.0.1:7420").
	Addr string
	// MaxClients bounds simultaneously connected clients; each owns one
	// process slot of the arena's N (default 64). Connections beyond
	// the bound receive an error frame and are closed.
	MaxClients int
	// Algorithm, Seed, ArenaShards, Prealloc configure the backing
	// arena exactly as randtas.ArenaOptions does, except that Prealloc
	// 0 means 1 slot per shard, not the arena's 4: slots past it are
	// built on first demand and then recycle.
	Algorithm   randtas.Algorithm
	Seed        int64
	ArenaShards int
	Prealloc    int
	// MaxFrame bounds accepted request frames (0 = wire.DefaultMaxFrame).
	MaxFrame int
	// LeaseSweep is the lease sweeper's scan interval — the granularity
	// of lease enforcement (default 5ms). A lease never expires early
	// and is guaranteed enforced within TTL + 2×LeaseSweep of its grant
	// (deadlines are computed against a sweeper-maintained coarse clock
	// so the grant path never reads the wall clock).
	LeaseSweep time.Duration
	// MaxWaiters, when positive, bounds each named lock's wait queue:
	// an ACQUIRE that would be the (MaxWaiters+1)-th concurrently
	// admitted acquisition of one lock is shed with BUSY instead of
	// queued. The count includes the acquisition that will win the
	// current round — it is queue occupancy, not "waiters behind the
	// holder". 0 means unbounded (the pre-v3 behavior).
	MaxWaiters int
	// MaxInflight, when positive, is the global admission budget: the
	// total concurrently admitted ACQUIREs across all locks. Excess is
	// shed with BUSY. 0 means unbounded.
	MaxInflight int
	// WriteTimeout, when positive, bounds each response-batch write. A
	// connection whose peer stops draining responses long enough for a
	// flush to exceed it is evicted (slow-client policy); its held
	// locks and process slot are recovered by the normal
	// disconnect-recovery path. 0 means writes may block indefinitely.
	WriteTimeout time.Duration
	// MaxIdle, when positive, enables server-driven eviction: every
	// MaxIdle the sweeper runs an eviction pass, retiring named locks
	// whose counters have been quiet for at least MaxIdle, returning
	// their final slots to the arena and dropping the server's per-name
	// state (including retained procs). A name used again simply starts
	// fresh.
	MaxIdle time.Duration
	// Logf, when non-nil, receives one line per lifecycle event
	// (connections, drain, expiries). Per-request logging would dominate
	// the request cost and is deliberately absent.
	Logf func(format string, args ...interface{})
	// Clock abstracts time, goroutine spawning and waiting (nil means
	// the wall clock, dst.Real). Injecting a *dst.SimClock virtualizes
	// the lease sweeper, the coarse clock, eviction, dead-peer probes,
	// blocked-ACQUIRE waits and the drain, making the whole server
	// schedulable by the deterministic-simulation layer. The server runs
	// the same code on either clock.
	Clock dst.Clock
	// Listener, when non-nil, is served instead of binding Addr — the
	// injection point for the dst in-memory fabric.
	Listener net.Listener
}

// Server is a tasd instance. Construct with New, bind with Listen, run
// with Serve, stop with Shutdown.
type Server struct {
	cfg         Config
	reg         *randtas.Registry
	clock       dst.Clock
	ln          net.Listener
	ids         chan int
	startedNano int64
	draining    atomic.Bool
	// drained is closed once every connection handler has exited after
	// draining began: by the last handler out, or by Shutdown itself
	// when none was left.
	drained   chan struct{}
	drainOnce sync.Once
	sweepStop chan struct{}
	sweepDone chan struct{}
	sweepOnce sync.Once

	mu    sync.Mutex
	conns map[net.Conn]*conn // value nil until the handler registers itself

	active     atomic.Int64
	opCounts   [10]atomic.Uint64 // indexed by opcode; [0] unused
	violations atomic.Uint64
	expiries   atomic.Uint64 // leases enforced by the sweeper

	// Overload accounting (see Config.MaxWaiters / MaxInflight /
	// WriteTimeout). inflight is the live global admission gauge; the
	// high-water marks are recorded on admission only, so they are ≤
	// the configured bounds by construction — what the dst overload
	// invariants assert.
	inflight        atomic.Int64
	shed            atomic.Uint64
	deadlineExpired atomic.Uint64
	slowEvictions   atomic.Uint64
	queueHW         atomic.Int64
	inflightHW      atomic.Int64
	// coarseNow is the sweeper-maintained wall clock (unix nanos),
	// refreshed every LeaseSweep. Lease deadlines are computed against
	// it instead of time.Now(): reading the real clock costs a syscall
	// on hosts without a usable vDSO fast path (typical small cloud
	// guests), and one read per grant was measured at ~15% of net-mode
	// throughput. Deadlines add one sweep interval of slack so a lease
	// can never fire early; enforcement lands within TTL + 2×LeaseSweep.
	coarseNow atomic.Int64

	locks     sync.Map // name -> *lockEntry
	elections sync.Map // name -> *electionEntry
}

// lockEntry is the server's view of one named lock: the registry mutex,
// the token-keyed owner word for the server-side exclusion check, the
// lease deadline, and the retained per-slot procs (see the package
// comment on slot recycling).
type lockEntry struct {
	m     *randtas.Mutex
	owner atomic.Uint64 // holder's fencing token; 0 when free
	lease atomic.Int64  // lease deadline, unix nanos; 0 = no lease
	// waiters is the admitted queue occupancy (only maintained when
	// Config.MaxWaiters > 0): every concurrently admitted ACQUIRE of
	// this lock, the round's eventual winner included.
	waiters atomic.Int64
	procs   []*randtas.MutexProc
}

// proc returns the retained MutexProc for slot id, creating it on first
// use. Only the connection currently owning slot id touches procs[id],
// and slot handoff between connections happens through the ids channel,
// so the cell needs no further synchronization.
func (e *lockEntry) proc(id int) *randtas.MutexProc {
	if e.procs[id] == nil {
		e.procs[id] = e.m.Proc(id)
	}
	return e.procs[id]
}

// electionEntry is one named election plus its retained per-slot procs
// (a recycled slot id must keep its predecessor's per-epoch
// participation state).
type electionEntry struct {
	e     *randtas.Election
	procs []*randtas.ElectionProc
}

func (e *electionEntry) proc(id int) *randtas.ElectionProc {
	if e.procs[id] == nil {
		e.procs[id] = e.e.Proc(id)
	}
	return e.procs[id]
}

// New builds a server and its backing registry; it does not bind yet.
func New(cfg Config) (*Server, error) {
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:7420"
	}
	if cfg.MaxClients == 0 {
		cfg.MaxClients = 64
	}
	if cfg.MaxClients < 1 {
		return nil, fmt.Errorf("server: MaxClients must be ≥ 1, got %d", cfg.MaxClients)
	}
	if cfg.Prealloc == 0 {
		cfg.Prealloc = 1
	}
	if cfg.MaxFrame <= 0 {
		cfg.MaxFrame = wire.DefaultMaxFrame
	}
	if cfg.LeaseSweep <= 0 {
		cfg.LeaseSweep = 5 * time.Millisecond
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...interface{}) {}
	}
	if cfg.Clock == nil {
		cfg.Clock = dst.Real
	}
	reg, err := randtas.NewRegistry(randtas.RegistryOptions{
		ArenaOptions: randtas.ArenaOptions{
			Options:  randtas.Options{N: cfg.MaxClients, Algorithm: cfg.Algorithm, Seed: cfg.Seed},
			Shards:   cfg.ArenaShards,
			Prealloc: cfg.Prealloc,
		},
		MaxIdle: cfg.MaxIdle,
		Clock:   cfg.Clock,
	})
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:       cfg,
		reg:       reg,
		clock:     cfg.Clock,
		ids:       make(chan int, cfg.MaxClients),
		drained:   make(chan struct{}),
		conns:     make(map[net.Conn]*conn),
		sweepStop: make(chan struct{}),
		sweepDone: make(chan struct{}),
	}
	for i := 0; i < cfg.MaxClients; i++ {
		s.ids <- i
	}
	return s, nil
}

// Listen binds the configured address (or adopts Config.Listener) and
// starts the lease sweeper. Addr is valid afterwards.
func (s *Server) Listen() error {
	ln := s.cfg.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", s.cfg.Addr)
		if err != nil {
			return err
		}
	}
	s.ln = ln
	s.startedNano = s.clock.Now().UnixNano()
	// Initialize the coarse clock before any grant can read it — a
	// zero clock would compute 1970-epoch deadlines and instantly
	// expire the first leases.
	s.coarseNow.Store(s.startedNano)
	s.clock.Go(s.sweepLeases)
	s.cfg.Logf("tasd: listening on %s (max %d clients, algorithm %s, protocol v%d, lease sweep %v)",
		ln.Addr(), s.cfg.MaxClients, s.cfg.Algorithm, wire.Version, s.cfg.LeaseSweep)
	return nil
}

// Addr returns the bound listen address (nil before Listen).
func (s *Server) Addr() net.Addr {
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Serve accepts connections until the listener closes. It returns nil
// when the close was a Shutdown, the accept error otherwise.
func (s *Server) Serve() error {
	if s.ln == nil {
		return errors.New("server: Serve before Listen")
	}
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			return err
		}
		select {
		case id := <-s.ids:
			// Registration, the draining re-check, and the active count
			// happen under one lock so a connection either lands before
			// Shutdown's sweep (and is drained by it) or is rejected —
			// Shutdown never reads zero handlers while an admitted one
			// is about to start.
			s.mu.Lock()
			if s.draining.Load() {
				s.mu.Unlock()
				nc.Close()
				s.ids <- id
				continue
			}
			s.conns[nc] = nil
			s.active.Add(1)
			s.mu.Unlock()
			s.clock.Go(func() { s.handle(nc, id) })
		default:
			// All process slots are taken: refuse rather than queue, so
			// admitted clients keep their wait-free slot guarantee.
			nc.Write(wire.AppendResponse(nil, wire.Response{
				Status:  wire.StatusError,
				Payload: []byte(fmt.Sprintf("server full: %d clients connected", s.cfg.MaxClients)),
			}))
			nc.Close()
		}
	}
}

// sweepLeases is the lease enforcement loop: every LeaseSweep it scans
// the named locks for overdue leases and fences their holders. The
// owner word is CASed against the exact granted token — tokens are
// strictly monotone per lock, so the CAS can never fire on a later
// grant (no ABA) — and losing the CAS to a concurrent RELEASE simply
// means the holder made it in time.
func (s *Server) sweepLeases() {
	defer close(s.sweepDone)
	var nextEvict int64
	if s.cfg.MaxIdle > 0 {
		nextEvict = s.clock.Now().UnixNano() + int64(s.cfg.MaxIdle)
	}
	for {
		s.clock.Sleep(s.cfg.LeaseSweep)
		select {
		case <-s.sweepStop:
			return
		default:
		}
		nowNano := s.clock.Now().UnixNano()
		s.coarseNow.Store(nowNano)
		type overdue struct {
			name     string
			e        *lockEntry
			tok      uint64
			deadline int64
		}
		var due []overdue
		s.locks.Range(func(k, v interface{}) bool {
			e := v.(*lockEntry)
			tok := e.owner.Load()
			if tok == 0 {
				return true
			}
			deadline := e.lease.Load()
			if deadline == 0 || nowNano < deadline {
				return true
			}
			due = append(due, overdue{k.(string), e, tok, deadline})
			return true
		})
		// Enforce in name order: sync.Map.Range order would leak Go's
		// map seed into the simulated schedule.
		sort.Slice(due, func(i, j int) bool { return due[i].name < due[j].name })
		for _, x := range due {
			// Re-read the owner: a (token, lease) pair read across a
			// concurrent release+regrant could mix an old deadline
			// with a new token. Grants store the lease before the
			// owner word, so an unchanged token pins the deadline.
			if x.e.owner.Load() != x.tok || !x.e.owner.CompareAndSwap(x.tok, 0) {
				continue
			}
			// CAS, not a blind store: if the fenced holder's release
			// already slipped in (its arena-level unlock still wins
			// the gate when it beats our Revoke) and a successor was
			// granted, the lease word now carries the successor's
			// deadline, which must survive.
			x.e.lease.CompareAndSwap(x.deadline, 0)
			x.e.m.Revoke(x.tok)
			s.expiries.Add(1)
		}
		if nextEvict != 0 && nowNano >= nextEvict {
			nextEvict = nowNano + int64(s.cfg.MaxIdle)
			if n := s.reg.Evict(); n > 0 {
				s.purgeRetired(n)
			}
		}
	}
}

// purgeRetired drops server-side state for locks the eviction pass
// retired, releasing each entry's retained procs for the collector. A
// name looked up again resolves to a fresh registry mutex — the
// CompareAndDelete ensures a racing re-resolution's new entry survives.
func (s *Server) purgeRetired(evicted int) {
	purged := 0
	s.locks.Range(func(k, v interface{}) bool {
		if v.(*lockEntry).m.Retired() && s.locks.CompareAndDelete(k, v) {
			purged++
		}
		return true
	})
	s.cfg.Logf("tasd: evicted %d idle locks (%d server entries purged)", evicted, purged)
}

// Shutdown drains the server: stop accepting, wake every connection's
// pending read, let in-flight batches finish, and wait. Blocked
// ACQUIREs abort with an error (their waiters would otherwise be
// un-wakeable — see MutexProc.LockWhile). If ctx expires first,
// remaining connections are force-closed (their held locks are still
// recovered by the per-connection cleanup). The lease sweeper stops and
// the registry closes once every connection has exited.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	if s.ln != nil {
		s.ln.Close()
	}
	now := s.clock.Now()
	conns := s.snapshotConns()
	for _, nc := range conns {
		nc.SetReadDeadline(now) // wake blocked readers; batches in flight complete
	}
	s.abortWaiters() // abort blocked ACQUIREs through the elector, mid-election included
	s.cfg.Logf("tasd: draining %d connections", len(conns))

	// snapshotConns took s.mu after draining was set, so every admitted
	// handler is already counted in active.
	if s.active.Load() == 0 {
		s.closeDrained()
	}
	err := s.clock.Await(ctx, s.drained)
	if err != nil {
		for _, nc := range s.snapshotConns() {
			nc.Close()
		}
		s.clock.Await(context.Background(), s.drained) // cleanup (lock recovery) still runs per connection
	}
	if s.ln != nil {
		s.sweepOnce.Do(func() { close(s.sweepStop) }) // Shutdown is idempotent
		s.clock.Await(context.Background(), s.sweepDone)
	}
	s.reg.Close()
	s.cfg.Logf("tasd: drained")
	return err
}

func (s *Server) closeDrained() { s.drainOnce.Do(func() { close(s.drained) }) }

// snapshotConns copies the live connection set in remote-address order —
// map iteration order would leak Go's map seed into the simulated
// schedule when the drain wakes blocked readers.
func (s *Server) snapshotConns() []net.Conn {
	s.mu.Lock()
	conns := make([]net.Conn, 0, len(s.conns))
	for nc := range s.conns {
		conns = append(conns, nc)
	}
	s.mu.Unlock()
	sort.Slice(conns, func(i, j int) bool {
		return conns[i].RemoteAddr().String() < conns[j].RemoteAddr().String()
	})
	return conns
}

// abortWaiters aborts every connection's blocked ACQUIRE (if any)
// through the elector: a drain must not wait out waiters that are
// parked or mid-election, and flipping the draining flag alone is only
// observed at their next stop poll. The abort lands at the waiter's
// next spin point, resolves as a loss, and — unlike a stop-flag exit —
// keeps the round's win/lose accounting exact, so a round emptied by
// the drain is recycled immediately. Sorted by remote address for the
// same schedule-determinism reason as snapshotConns.
func (s *Server) abortWaiters() {
	s.mu.Lock()
	cs := make([]*conn, 0, len(s.conns))
	for _, c := range s.conns {
		if c != nil {
			cs = append(cs, c)
		}
	}
	s.mu.Unlock()
	sort.Slice(cs, func(i, j int) bool {
		return cs[i].nc.RemoteAddr().String() < cs[j].nc.RemoteAddr().String()
	})
	for _, c := range cs {
		if p := c.blocked.Load(); p != nil {
			p.Abort()
		}
	}
}

// Registry exposes the backing registry (for in-process inspection and
// tests).
func (s *Server) Registry() *randtas.Registry { return s.reg }

// Violations reports the server-side mutual-exclusion check failures.
func (s *Server) Violations() uint64 { return s.violations.Load() }

// LeaseExpirations reports how many leases the sweeper has enforced.
func (s *Server) LeaseExpirations() uint64 { return s.expiries.Load() }

// VisitLocks calls f for every named lock's server-side state: the
// incarnation serving the name (a new one follows only an eviction),
// the holder's fencing token (0 when free) and the lease deadline in
// unix nanos (0 when leaseless). The dst invariant checker uses it to
// assert fencing and lease bounds; visit order is unspecified.
func (s *Server) VisitLocks(f func(name string, m *randtas.Mutex, owner uint64, leaseDeadline int64)) {
	s.locks.Range(func(k, v interface{}) bool {
		e := v.(*lockEntry)
		f(k.(string), e.m, e.owner.Load(), e.lease.Load())
		return true
	})
}

// OverloadStats is a snapshot of the admission-control and backpressure
// counters, for tests and the dst overload invariants.
type OverloadStats struct {
	// Shed counts ACQUIREs refused by admission control; DeadlineExpired
	// those aborted because the client's propagated waitMs ran out;
	// SlowClientEvictions connections dropped on a write timeout.
	Shed                uint64
	DeadlineExpired     uint64
	SlowClientEvictions uint64
	// QueueDepthHighWater / InflightHighWater are the admission
	// high-water marks (≤ the configured bounds when enabled).
	QueueDepthHighWater int64
	InflightHighWater   int64
	// InflightNow is the live global admission gauge; it must return to
	// 0 once the service quiesces, or a reservation leaked.
	InflightNow int64
}

// Overload returns the current overload counters.
func (s *Server) Overload() OverloadStats {
	return OverloadStats{
		Shed:                s.shed.Load(),
		DeadlineExpired:     s.deadlineExpired.Load(),
		SlowClientEvictions: s.slowEvictions.Load(),
		QueueDepthHighWater: s.queueHW.Load(),
		InflightHighWater:   s.inflightHW.Load(),
		InflightNow:         s.inflight.Load(),
	}
}

// reserve admits one ACQUIRE against the per-lock queue bound and the
// global in-flight budget, reporting false — with nothing reserved —
// when either is exhausted. The pattern is reserve-then-check: the
// counter is bumped first and rolled back on refusal, so the admitted
// occupancy can never exceed the bound, and the high-water marks
// (recorded on admission only) inherit that guarantee. With both bounds
// off this is two predictable branches on the hot path.
func (s *Server) reserve(e *lockEntry) bool {
	if mw := s.cfg.MaxWaiters; mw > 0 {
		d := e.waiters.Add(1)
		if d > int64(mw) {
			e.waiters.Add(-1)
			return false
		}
		atomicMax(&s.queueHW, d)
	}
	if mi := s.cfg.MaxInflight; mi > 0 {
		g := s.inflight.Add(1)
		if g > int64(mi) {
			s.inflight.Add(-1)
			if s.cfg.MaxWaiters > 0 {
				e.waiters.Add(-1)
			}
			return false
		}
		atomicMax(&s.inflightHW, g)
	}
	return true
}

// unreserve returns an admitted ACQUIRE's reservations once its
// LockWhile resolved (granted, aborted, or retried).
func (s *Server) unreserve(e *lockEntry) {
	if s.cfg.MaxWaiters > 0 {
		e.waiters.Add(-1)
	}
	if s.cfg.MaxInflight > 0 {
		s.inflight.Add(-1)
	}
}

// retryAfterMillis is the server's retry suggestion on a shed: two
// sweep intervals — the granularity at which leases expire and
// deadlines fire, i.e. the soonest the picture can change. Derived from
// configuration only, so simulated schedules stay deterministic; the
// client adds seeded jitter on its side.
func (s *Server) retryAfterMillis() uint32 {
	ms := int64(2*s.cfg.LeaseSweep) / int64(time.Millisecond)
	if ms < 1 {
		ms = 1
	}
	if ms > 1000 {
		ms = 1000
	}
	return uint32(ms)
}

func atomicMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// lockEntry returns the server-side state of a named lock, creating it
// on first use. An entry whose mutex was retired by eviction is dropped
// and re-resolved — the registry hands out a fresh incarnation for the
// name, and the stale procs go with the old entry.
func (s *Server) lockEntry(name string) *lockEntry {
	for {
		if v, ok := s.locks.Load(name); ok {
			e := v.(*lockEntry)
			if !e.m.Retired() {
				return e
			}
			s.locks.CompareAndDelete(name, v)
			continue
		}
		e := &lockEntry{m: s.reg.Mutex(name), procs: make([]*randtas.MutexProc, s.cfg.MaxClients)}
		if e.m.Retired() {
			// Lost a race with an eviction pass between the registry
			// lookup and retirement; the next lookup starts fresh.
			continue
		}
		if actual, loaded := s.locks.LoadOrStore(name, e); loaded {
			if le := actual.(*lockEntry); !le.m.Retired() {
				return le
			}
			s.locks.CompareAndDelete(name, actual)
			continue
		}
		return e
	}
}

// electionEntry returns the server-side state of a named election,
// creating it on first use.
func (s *Server) electionEntry(name string) *electionEntry {
	if e, ok := s.elections.Load(name); ok {
		return e.(*electionEntry)
	}
	e := &electionEntry{
		e:     s.reg.Election(name),
		procs: make([]*randtas.ElectionProc, s.cfg.MaxClients),
	}
	actual, _ := s.elections.LoadOrStore(name, e)
	return actual.(*electionEntry)
}

// conn is one connection's state, confined to its goroutine.
type conn struct {
	s       *Server
	id      int
	version uint32 // negotiated protocol version; 1 until HELLO
	nc      net.Conn
	br      *bufio.Reader
	out     []byte               // batched responses, one write per batch
	locks   map[string]*connLock // names this connection has touched
	// elected caches this connection's v1 ELECT outcomes so repeats
	// answer consistently forever, preserving the decided-once view
	// regardless of epoch resets. epochElected caches the current
	// epoch's ELECTEPOCH answer per name.
	elected      map[string]byte
	epochElected map[string]electResult
	// lastProbe rate-limits dead-peer probes while blocked on a lock,
	// in coarse-clock unix nanos.
	lastProbe int64
	// blocked publishes the proc this connection is currently parked on
	// inside a blocked ACQUIRE (nil otherwise), so the drain sweep can
	// abort the waiter through the elector from outside its goroutine.
	blocked atomic.Pointer[randtas.MutexProc]
}

type electResult struct {
	leader bool
	epoch  uint64
}

type connLock struct {
	entry *lockEntry
	proc  *randtas.MutexProc
	held  bool
	tok   randtas.Token // fencing token of the live grant
}

func (c *conn) lock(name string) *connLock {
	if cl, ok := c.locks[name]; ok {
		// A held connLock stays pinned to its incarnation even if
		// retired (the fenced-reap path needs the original entry); an
		// idle one follows the name to its evicted successor.
		if cl.held || !cl.entry.m.Retired() {
			return cl
		}
		delete(c.locks, name)
	}
	e := c.s.lockEntry(name)
	cl := &connLock{entry: e, proc: e.proc(c.id)}
	c.locks[name] = cl
	return cl
}

// reapFenced clears a connLock whose grant was fenced (lease expired):
// the arena-level release returns ErrFenced and frees the proc to lock
// again. It reports whether the connLock was actually fenced.
func (c *conn) reapFenced(cl *connLock) bool {
	if !cl.held || cl.entry.owner.Load() == uint64(cl.tok) {
		return false
	}
	cl.proc.Unlock(cl.tok) // ErrFenced by construction; state now clean
	cl.held = false
	return true
}

// reply appends a response frame to the batch buffer.
func (c *conn) reply(id uint32, status byte, payload []byte) {
	c.out = wire.AppendResponse(c.out, wire.Response{Status: status, ID: id, Payload: payload})
}

func (c *conn) replyErr(id uint32, format string, args ...interface{}) {
	c.reply(id, wire.StatusError, []byte(fmt.Sprintf(format, args...)))
}

// flush writes the batched responses. A write error is remembered by
// the caller loop via the returned error; the batch buffer is always
// reset. With WriteTimeout set, the write runs under a deadline: a peer
// that stopped draining responses (kernel buffers full, reader wedged)
// times the flush out and is evicted — counted, logged, and recovered
// through the same deferred cleanup a disconnect takes. Combined with
// the maxBatchedResponses bound this caps per-connection response
// memory: the buffer cannot grow past the bound, and the flush that
// would block forever dies in WriteTimeout instead.
func (c *conn) flush() error {
	if len(c.out) == 0 {
		return nil
	}
	wt := c.s.cfg.WriteTimeout
	if wt > 0 {
		c.nc.SetWriteDeadline(c.s.clock.Now().Add(wt)) //taslint:allow hotclock -- write-deadline arming is gated on WriteTimeout > 0 and needs the precise clock; the coarse clock's granularity is the sweep interval
	}
	_, err := c.nc.Write(c.out)
	if wt > 0 {
		c.nc.SetWriteDeadline(time.Time{})
	}
	if err != nil {
		var nerr net.Error
		if errors.As(err, &nerr) && nerr.Timeout() {
			c.s.slowEvictions.Add(1)
			c.s.cfg.Logf("tasd: evicting slow client %v (flush stalled > %v)", c.nc.RemoteAddr(), wt)
		}
	}
	c.out = c.out[:0]
	return err
}

// shedReply answers an ACQUIRE the server refuses to wait out —
// admission-control shed or propagated-deadline expiry. v3 connections
// receive StatusBusy with the retry-after suggestion; older clients,
// whose protocol never defined BUSY on ACQUIRE, get a plain error frame
// they already know how to surface.
func (c *conn) shedReply(req wire.Request) {
	if c.version >= 3 {
		c.reply(req.ID, wire.StatusBusy, wire.BusyPayload(c.s.retryAfterMillis()))
		return
	}
	c.replyErr(req.ID, "ACQUIRE %q: server overloaded, retry later", req.Name)
}

// maxBatchedResponses caps how much response data a batch accumulates
// before an intermediate flush.
const maxBatchedResponses = 256 << 10

// deadProbeInterval rate-limits dead-peer probes from a blocked
// ACQUIRE's wait loop.
const deadProbeInterval = 50 * time.Millisecond

// dead reports whether the peer has hung up, detected by a 1 ms Peek
// through the connection's own reader (this goroutine is the only
// reader, and Peek consumes nothing, so pipelined frames are
// preserved). A timeout just means "no news" — only EOF or a hard
// error counts as dead. Probe pacing reads the sweeper's coarse clock,
// so the wait loop itself never touches the wall clock; the precise
// clock is consulted only for the (rate-limited) probe deadline.
func (c *conn) dead() bool {
	now := c.s.coarseNow.Load()
	if now-c.lastProbe < int64(deadProbeInterval) {
		return false
	}
	c.lastProbe = now
	c.nc.SetReadDeadline(c.s.clock.Now().Add(time.Millisecond)) //taslint:allow hotclock -- dead-peer probe: already rate-limited by deadProbeInterval on the coarse clock, and the 1ms deadline needs precision the coarse clock lacks
	_, err := c.br.Peek(1)
	c.nc.SetReadDeadline(time.Time{})
	if err == nil {
		return false
	}
	var nerr net.Error
	return !(errors.As(err, &nerr) && nerr.Timeout())
}

// handle serves one connection until it closes, errors, or the server
// drains. The deferred cleanup releases held locks in this goroutine
// (MutexProc confinement) and recycles the process slot.
func (s *Server) handle(nc net.Conn, id int) {
	c := &conn{s: s, id: id, version: 1, nc: nc, br: bufio.NewReaderSize(nc, 64<<10), locks: map[string]*connLock{}}
	s.mu.Lock()
	if _, ok := s.conns[nc]; ok {
		s.conns[nc] = c // let the drain sweep reach c.blocked
	}
	s.mu.Unlock()
	defer func() {
		// Recovery in name order: map iteration order would leak Go's
		// map seed into the simulated schedule.
		names := make([]string, 0, len(c.locks))
		for name := range c.locks {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			cl := c.locks[name]
			if cl.held {
				// Recover the lock: win the owner word first so the next
				// winner's exclusion check sees it free. Losing the CAS
				// means the lease sweeper already fenced us; either way
				// the arena-level release leaves the proc clean.
				if cl.entry.owner.CompareAndSwap(uint64(cl.tok), 0) {
					cl.entry.lease.Store(0)
				}
				cl.proc.Unlock(cl.tok)
				cl.held = false
			}
		}
		nc.Close()
		// The decrement and the draining check share s.mu with Serve's
		// admission, so no connection can be admitted between this
		// handler taking active to 0 and it deciding it was the last.
		s.mu.Lock()
		delete(s.conns, nc)
		last := s.active.Add(-1) == 0 && s.draining.Load()
		s.mu.Unlock()
		s.ids <- id // hand the slot to the next connection (happens-before edge)
		if last {
			s.closeDrained() // the last handler out completes the drain
		}
	}()

	for {
		req, err := wire.ReadRequest(c.br, s.cfg.MaxFrame)
		if err != nil {
			c.protocolBye(err)
			return
		}
		if !s.process(c, req) {
			c.flush()
			return
		}
		// Drain the rest of the pipelined batch: every frame already
		// buffered is processed before the single response write —
		// bounded, so a burst of payload-heavy requests (STATS) cannot
		// balloon the response buffer; past the bound we flush and
		// keep going in the next outer iteration.
		for c.buffered() && len(c.out) < maxBatchedResponses {
			if req, err = wire.ReadRequest(c.br, s.cfg.MaxFrame); err != nil {
				c.protocolBye(err)
				return
			}
			if !s.process(c, req) {
				c.flush()
				return
			}
		}
		if c.flush() != nil {
			return
		}
		if s.draining.Load() {
			return // batch answered; drain takes the connection down
		}
	}
}

// buffered reports whether a complete request frame is already in the
// read buffer (so decoding it cannot block).
func (c *conn) buffered() bool {
	if c.br.Buffered() < 4 {
		return false
	}
	head, err := c.br.Peek(4)
	if err != nil {
		return false
	}
	n := int(binary.BigEndian.Uint32(head))
	if n > c.s.cfg.MaxFrame {
		return true // let ReadRequest surface ErrFrameTooLarge
	}
	return c.br.Buffered() >= 4+n
}

// protocolBye answers a malformed stream with a best-effort error frame
// (after flushing any responses the batch already earned). Clean EOF
// and drain-deadline expiry close silently.
func (c *conn) protocolBye(err error) {
	defer c.flush()
	if err == io.EOF {
		return
	}
	var nerr net.Error
	if errors.As(err, &nerr) && nerr.Timeout() {
		return // drain deadline
	}
	c.replyErr(0, "protocol error: %v", err)
}

// grantPayload shapes a successful acquisition's payload for the
// connection's protocol version: v2 clients receive the fencing token.
func (c *conn) grantPayload(tok randtas.Token) []byte {
	if c.version >= 2 {
		return wire.TokenPayload(uint64(tok))
	}
	return nil
}

// process executes one request, appending its response to the batch.
// It returns false when the connection must close (protocol misuse).
func (s *Server) process(c *conn, req wire.Request) bool {
	if req.Op >= 1 && int(req.Op) < len(s.opCounts) {
		s.opCounts[req.Op].Add(1)
	}
	switch req.Op {
	case wire.OpHello:
		v := req.Version
		if v < 1 {
			v = 1
		}
		if v > wire.Version {
			v = wire.Version
		}
		c.version = v
		c.reply(req.ID, wire.StatusOK, wire.HelloPayload(v))
		return true

	case wire.OpAcquire:
		// Propagated client deadline (v3 waitMs): absolute, against the
		// sweeper's coarse clock, so the wait loop below never reads the
		// wall clock. Like leases it can fire at most 2×LeaseSweep late,
		// never early — enforcement lands within waitMs + 2×LeaseSweep.
		var deadline int64
		if req.WaitMillis > 0 {
			deadline = s.coarseNow.Load() + int64(req.WaitMillis)*int64(time.Millisecond)
		}
		for {
			cl := c.lock(req.Name)
			c.reapFenced(cl) // a lease-expired grant is cleaned up, not an error
			if cl.held {
				c.replyErr(req.ID, "ACQUIRE %q: already held by this connection (locks are not reentrant)", req.Name)
				return true
			}
			// Admission control: shed rather than queue when the lock's
			// wait queue or the global in-flight budget is full. A shed
			// request never enters LockWhile, so it never takes an arena
			// slot — the invariant the dst overload scenario asserts.
			if !s.reserve(cl.entry) {
				s.shed.Add(1)
				c.shedReply(req)
				return true
			}
			// Block through LockWhile (not a TryLock probe first — that
			// would count every contended ACQUIRE as a TRYACQUIRE loss in
			// the per-lock stats). The stop predicate runs only while
			// waiting for the holder to hand over; on the first poll it
			// flushes the batch's earlier responses so pipelined
			// predecessors aren't delayed. Give-up conditions — the drain,
			// the propagated deadline expiring, and the waiter's own
			// client vanishing — are routed through the elector's abort
			// protocol rather than returned from the predicate: the abort
			// resolves the waiter as a loss with exact win/lose accounting
			// (a round emptied by a disconnect storm recycles immediately)
			// and also lands mid-election, where the stop flag is never
			// consulted. The drain sweep in Shutdown aborts parked waiters
			// from outside the same way.
			var flushErr error
			var peerDead, deadlineHit bool
			flushed := false
			c.blocked.Store(cl.proc)
			tok, won := cl.proc.LockWhile(func() bool {
				if !flushed {
					flushed = true
					flushErr = c.flush()
				}
				if flushErr != nil {
					return true
				}
				if s.draining.Load() {
					cl.proc.Abort()
				} else if deadline != 0 && s.coarseNow.Load() >= deadline {
					deadlineHit = true
					cl.proc.Abort()
				} else if c.dead() {
					peerDead = true
					cl.proc.Abort()
				}
				return false // LockWhile paces the wait on s.clock
			})
			c.blocked.Store(nil)
			s.unreserve(cl.entry)
			if won {
				if deadlineHit || (deadline != 0 && s.coarseNow.Load() >= deadline) {
					// Won the race against its own expiry. The client
					// asked not to be answered this late — don't park the
					// lock on a ghost; Unlock installs the successor round
					// and the win is undone before the owner word or a
					// lease ever saw it. (A pending abort flag from the
					// lost race is consumed as a stale abort by this
					// connection's next acquisition and retried.)
					cl.proc.Unlock(tok)
					s.deadlineExpired.Add(1)
					c.shedReply(req)
					return true
				}
				c.grant(cl, req, tok)
				return true
			}
			if flushErr != nil || peerDead {
				return false
			}
			if deadlineHit {
				s.deadlineExpired.Add(1)
				c.shedReply(req)
				return true
			}
			if s.draining.Load() {
				c.replyErr(req.ID, "ACQUIRE %q: server draining", req.Name)
				return false
			}
			// The name was evicted mid-wait (retry on the successor
			// incarnation — the client asked for the name, not the
			// incarnation), or a stale abort from an earlier episode cut
			// the wait short (LockWhile consumed it; just re-enter).
			continue
		}

	case wire.OpTryAcquire:
		for {
			cl := c.lock(req.Name)
			c.reapFenced(cl)
			if cl.held {
				c.replyErr(req.ID, "TRYACQUIRE %q: already held by this connection (locks are not reentrant)", req.Name)
				return true
			}
			tok, ok := cl.proc.TryLock()
			if !ok {
				if cl.entry.m.Retired() {
					// Evicted between lookup and probe; the successor
					// incarnation takes the retry.
					continue
				}
				c.reply(req.ID, wire.StatusBusy, nil)
				return true
			}
			c.grant(cl, req, tok)
			return true
		}

	case wire.OpExtend:
		// Renew a live lease by fencing token. Token-addressed, not
		// connection-addressed, so a KeepAlive heartbeat may run on a
		// dedicated connection. Near the deadline the sweeper wins
		// races by design: a renewal must land at least one sweep
		// early (the client-side KeepAlive renews at TTL/3).
		v, ok := s.locks.Load(req.Name)
		if !ok {
			c.reply(req.ID, wire.StatusFenced, wire.TokenPayload(0))
			return true
		}
		e := v.(*lockEntry)
		if e.owner.Load() != req.Token {
			c.reply(req.ID, wire.StatusFenced, wire.TokenPayload(uint64(e.m.Holder())))
			return true
		}
		ttl := time.Duration(req.TTLMillis)*time.Millisecond + s.cfg.LeaseSweep
		e.lease.Store(s.coarseNow.Load() + int64(ttl))
		if e.owner.Load() != req.Token {
			// The sweeper (or a release) fenced the grant between the
			// check and the stamp. The stale deadline we wrote is
			// harmless — grants overwrite the lease word and the
			// sweeper ignores free locks — but the caller must know.
			c.reply(req.ID, wire.StatusFenced, wire.TokenPayload(uint64(e.m.Holder())))
			return true
		}
		c.reply(req.ID, wire.StatusOK, wire.TokenPayload(req.Token))
		return true

	case wire.OpRelease:
		cl, ok := c.locks[req.Name]
		if !ok || !cl.held {
			c.replyErr(req.ID, "RELEASE %q: not held by this connection", req.Name)
			return true
		}
		if req.Token != 0 && req.Token != uint64(cl.tok) {
			// A stale fencing token — an earlier grant's, or a guess.
			// The live grant is untouched; the stale party learns the
			// current fence.
			c.reply(req.ID, wire.StatusFenced, wire.TokenPayload(uint64(cl.tok)))
			return true
		}
		if !cl.entry.owner.CompareAndSwap(uint64(cl.tok), 0) {
			// The lease sweeper fenced this grant first. Clean up the
			// proc (arena-level ErrFenced) and tell the zombie.
			cl.proc.Unlock(cl.tok)
			cl.held = false
			c.reply(req.ID, wire.StatusFenced, wire.TokenPayload(uint64(cl.entry.m.Holder())))
			return true
		}
		cl.entry.lease.Store(0)
		cl.held = false
		if err := cl.proc.Unlock(cl.tok); err != nil {
			// Unreachable once we own the owner word: nothing else may
			// revoke this token. Surface it loudly if it ever happens.
			s.violations.Add(1)
			c.replyErr(req.ID, "RELEASE %q: %v", req.Name, err)
			return true
		}
		c.reply(req.ID, wire.StatusOK, nil)
		return true

	case wire.OpElect:
		// The v1 decided-once view: the first answer sticks for the
		// connection's lifetime, across epoch resets.
		res, ok := c.elected[req.Name]
		if !ok {
			// Participate, not Elect: the proc is retained across
			// connections, and a recycled slot must not inherit its dead
			// predecessor's cached leadership — the per-epoch bitmap
			// demotes reuse to loser, and repeat-query stability comes
			// from this connection's own cache.
			leader, _ := s.electionEntry(req.Name).proc(c.id).Participate()
			res = wire.ElectLoser
			if leader {
				res = wire.ElectLeader
			}
			if c.elected == nil {
				c.elected = map[string]byte{}
			}
			c.elected[req.Name] = res
		}
		c.reply(req.ID, wire.StatusOK, []byte{res})
		return true

	case wire.OpElectEpoch:
		e := s.electionEntry(req.Name)
		res, ok := c.epochElected[req.Name]
		if !ok || res.epoch != e.e.Epoch() {
			leader, epoch := e.proc(c.id).Participate() // uncached; see OpElect
			res = electResult{leader: leader, epoch: epoch}
			if c.epochElected == nil {
				c.epochElected = map[string]electResult{}
			}
			c.epochElected[req.Name] = res
		}
		c.reply(req.ID, wire.StatusOK, wire.ElectPayload(res.leader, res.epoch))
		return true

	case wire.OpElectReset:
		e := s.electionEntry(req.Name)
		epoch, err := e.e.Reset(req.Epoch)
		if errors.Is(err, randtas.ErrStaleEpoch) {
			c.reply(req.ID, wire.StatusFenced, wire.TokenPayload(epoch))
			return true
		}
		if err != nil {
			c.replyErr(req.ID, "ELECTRESET %q: %v", req.Name, err)
			return true
		}
		c.reply(req.ID, wire.StatusOK, wire.TokenPayload(epoch))
		return true

	case wire.OpStats:
		buf, err := s.statsPayload()
		if err != nil {
			c.replyErr(req.ID, "STATS: %v", err)
			return true
		}
		c.reply(req.ID, wire.StatusOK, buf)
		return true

	default:
		// Unknown opcode: the stream framing may still be intact, but
		// the peer speaks a different protocol — answer and close.
		c.replyErr(req.ID, "unknown opcode %d", req.Op)
		return false
	}
}

// grant completes a successful acquisition: the server-side exclusion
// check on the token-keyed owner word, the lease stamp, then the OK
// response. The lock's TAS already guarantees a unique winner; the
// owner word re-verifies it end to end on every single acquisition,
// which is what lets a load generator assert that the service — not
// just the algorithm — kept mutual exclusion. The lease deadline is
// stored before the owner word so the sweeper's (owner, lease, owner)
// read sandwich can never pair a fresh token with a stale deadline.
func (c *conn) grant(cl *connLock, req wire.Request, tok randtas.Token) {
	if req.TTLMillis > 0 {
		// Coarse clock + one sweep of slack: never early, at most one
		// extra sweep late. See Server.coarseNow.
		ttl := time.Duration(req.TTLMillis)*time.Millisecond + c.s.cfg.LeaseSweep
		cl.entry.lease.Store(c.s.coarseNow.Load() + int64(ttl))
	} else {
		cl.entry.lease.Store(0)
	}
	if !cl.entry.owner.CompareAndSwap(0, uint64(tok)) {
		c.s.violations.Add(1)
		cl.entry.lease.Store(0) // don't let our deadline fence the real owner
		cl.proc.Unlock(tok)
		c.replyErr(req.ID, "%s %q: exclusion violated (owner token %d)", wire.OpName(req.Op), req.Name, cl.entry.owner.Load())
		return
	}
	cl.held = true
	cl.tok = tok
	c.reply(req.ID, wire.StatusOK, c.grantPayload(tok))
}

// statsPayload marshals the STATS snapshot, shrinking the per-name
// lists if the JSON would overflow a response frame — a reply the
// client cannot read would permanently desynchronize its stream.
func (s *Server) statsPayload() ([]byte, error) {
	limit := wire.DefaultMaxFrame // what a default client will accept
	if s.cfg.MaxFrame < limit {
		limit = s.cfg.MaxFrame
	}
	limit -= 64 // response header + slack
	st := s.stats()
	for {
		buf, err := json.Marshal(st)
		if err != nil {
			return nil, err
		}
		if len(buf) <= limit || len(st.Locks)+len(st.Elections) == 0 {
			return buf, nil
		}
		st.Truncated = true
		st.Locks = st.Locks[:len(st.Locks)/2]
		st.Elections = st.Elections[:len(st.Elections)/2]
	}
}

// stats assembles the STATS snapshot.
func (s *Server) stats() wire.Stats {
	st := wire.Stats{
		ProtocolVersion:  wire.Version,
		UptimeSeconds:    time.Duration(s.coarseNow.Load() - s.startedNano).Seconds(),
		ActiveConns:      int(s.active.Load()),
		MaxClients:       s.cfg.MaxClients,
		Ops:              map[string]uint64{},
		Violations:       s.violations.Load(),
		LeaseExpirations: s.expiries.Load(),
		Evictions:        s.reg.Evictions(),

		Shed:                s.shed.Load(),
		DeadlineExpired:     s.deadlineExpired.Load(),
		SlowClientEvictions: s.slowEvictions.Load(),
		QueueDepthHighWater: s.queueHW.Load(),
		InflightHighWater:   s.inflightHW.Load(),
		MaxWaiters:          s.cfg.MaxWaiters,
		MaxInflight:         s.cfg.MaxInflight,
	}
	for op := byte(1); int(op) < len(s.opCounts); op++ {
		if n := s.opCounts[op].Load(); n > 0 {
			st.Ops[wire.OpName(op)] = n
		}
	}
	for _, ls := range s.reg.Stats() {
		st.Locks = append(st.Locks, wire.LockStats{
			Name:        ls.Name,
			Rounds:      ls.Rounds,
			Contended:   ls.Contended,
			ProbeLosses: ls.ProbeLosses,
			Expirations: ls.Expirations,
			Aborts:      ls.Aborts,
			Recovered:   ls.Recovered,
			HolderToken: ls.HolderToken,
			Evictions:   ls.Evictions,
		})
		st.Aborts += ls.Aborts
		st.Recovered += ls.Recovered
	}
	for _, es := range s.reg.ElectionStats() {
		st.Elections = append(st.Elections, wire.ElectionStats{
			Name:    es.Name,
			Epoch:   es.Epoch,
			Resets:  es.Resets,
			Decided: es.Decided,
			// Election procs are connection slots, so the winner's proc
			// id names the winning connection.
			WinnerConn: es.Winner,
		})
	}
	a := s.reg.ArenaStats()
	st.Arena = wire.ArenaStats{
		Hits: a.Hits, Steals: a.Steals, Misses: a.Misses,
		Puts: a.Puts, Slots: a.Slots, Registers: a.Registers,
	}
	return st
}
