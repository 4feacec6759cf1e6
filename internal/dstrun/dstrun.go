// Package dstrun drives a whole tasd instance plus a fleet of clients
// inside the deterministic simulation (internal/dst): one seeded
// virtual clock, one in-memory network fabric, every goroutine a
// managed actor. A scenario is reproduced byte-identically from its
// seed — same seed, same event trace — so any failure the randomized
// schedule finds can be replayed and debugged offline.
//
// Invariants are checked continuously (on every scheduler step) and at
// teardown:
//
//   - at most one holder per lock, via the server's own token-keyed
//     exclusion check (Violations must stay 0)
//   - fencing tokens observed on each lock's owner word are monotone
//   - at most one leader per election epoch
//   - an overdue lease is enforced within TTL + 2×LeaseSweep
//   - a renewed lease (EXTEND / KeepAlive) survives past its original
//     TTL, and an unrenewed one does not
//   - idle names are evicted, and an evicted name is usable afresh
//   - after a drain no waiter is left stuck (the scheduler's deadlock
//     detector stays quiet and the run ends)
package dstrun

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dst"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/tasclient"
)

// Scenario selects which actors a run spawns.
type Scenario string

const (
	// ScenarioLocks is contended acquire/release traffic with leases,
	// renewals, expiry races, abandoned connections and eviction.
	ScenarioLocks Scenario = "locks"
	// ScenarioElect is epoch'd leader elections with resets.
	ScenarioElect Scenario = "elect"
	// ScenarioChaos is ScenarioLocks plus a chaos actor injecting
	// partitions and connection resets mid-traffic.
	ScenarioChaos Scenario = "chaos"
	// ScenarioFuzz aims the wire-frame fuzzer at the server while one
	// well-behaved client verifies the service stays available.
	ScenarioFuzz Scenario = "fuzz"
	// ScenarioMixed runs everything at once.
	ScenarioMixed Scenario = "mixed"
	// ScenarioAbortStorm races seeded waves of mid-ACQUIRE cancellations
	// (client read deadlines firing on the virtual clock) and abrupt
	// disconnects against partitions, all while one holder keeps the
	// locks contended so every storm wave blocks mid-election. The run
	// asserts that an abort leaves no residue: the arena's slot
	// population returns to its baseline within a bounded virtual delay,
	// no waiter goroutine survives the drain, client-side cancellation
	// latency stays within the armed deadline, and fencing tokens remain
	// monotone across abort/reacquire cycles.
	ScenarioAbortStorm Scenario = "abortstorm"
	// ScenarioOverload floods a deliberately small admission envelope
	// (per-lock wait-queue bound, global in-flight budget, write
	// timeout): open-loop clients with propagated deadlines, a holder
	// keeping the locks contended, a slow reader that stops draining its
	// responses over a capped fabric pipe, and the chaos actor cutting
	// partitions through the storm. The run asserts that degradation is
	// graceful: admitted queue depths never exceed the configured
	// bounds, shed requests never hold an admission slot once answered
	// (the in-flight gauge returns to zero and the arena to its slot
	// baseline), every propagated deadline is enforced within the
	// coarse-clock bound, the non-draining client is evicted and its
	// lock recovered, and goodput stays nonzero through it all.
	ScenarioOverload Scenario = "overload"
)

// The overload scenario's deliberately tight server envelope: small
// enough that the default traffic saturates it, big enough that grants
// still flow.
const (
	overloadMaxWaiters   = 2
	overloadMaxInflight  = 6
	overloadWriteTimeout = 25 * time.Millisecond
	// overloadInboundLimit caps the slow reader's fabric pipe so the
	// server's response writes park instead of buffering unboundedly.
	overloadInboundLimit = 1024
)

// Config parameterizes one simulated run. The zero value of every
// field picks a sensible default.
type Config struct {
	Seed     uint64
	Clients  int      // lock/elect client actors (default 4)
	Ops      int      // operations per client (default 40)
	Scenario Scenario // default ScenarioMixed
	// LeaseSweep is the server's sweep interval (default 2ms); lease
	// TTLs used by the traffic are derived from it.
	LeaseSweep time.Duration
	// MaxIdle is the server's eviction threshold (default 15×sweep for
	// scenarios with lock traffic; set negative to disable).
	MaxIdle time.Duration
	// Faults configures the fabric. A zero value gets modest link
	// delays (fault-free otherwise); pass an explicit mix for drops,
	// duplicates, corruption or resets.
	Faults dst.Faults
	// Trace records the full event trace in the report (expensive;
	// TraceHash is always computed).
	Trace bool
}

// Report is one run's deterministic outcome: same Config (and binary)
// in, identical Report out — including the trace hash, which covers
// every scheduled event.
type Report struct {
	Seed      uint64
	Scenario  Scenario
	Events    uint64
	TraceHash uint64
	Virtual   time.Duration // virtual time consumed

	Acquires   int
	Releases   int
	Busy       int
	Fenced     int
	Extends    int
	Elections  int
	FuzzFrames int
	Redials    int

	Cancels int // mid-ACQUIRE client-side deadline cancellations
	Hangups int // mid-ACQUIRE disconnects and resets

	Expiries   uint64 // leases the sweeper enforced
	Evictions  uint64 // names retired by the eviction pass
	Violations uint64 // server-side exclusion failures (must be 0)
	Aborts     uint64 // elector aborts observed by the arena
	Recovered  uint64 // winnerless rounds the arena recovered

	// SlotsOutstanding is the arena's live slot population once the
	// storm quiesced (abortstorm and overload): Hits+Steals+Misses−Puts,
	// which must equal one slot per live mutex plus one per live
	// election.
	SlotsOutstanding int64
	// CancelLatencyMax is the worst client-observed gap, in virtual
	// time, between a mid-ACQUIRE deadline firing and the blocked call
	// returning (abortstorm only).
	CancelLatencyMax time.Duration

	// Overload counters (overload scenario): ACQUIREs the admission
	// controller refused, waits the server cut short at their propagated
	// deadline, non-draining clients evicted, the deepest per-lock wait
	// queue ever admitted, and grants that landed within their budget.
	Shed                uint64
	DeadlineExpired     uint64
	SlowClientEvictions uint64
	QueueDepthHighWater int64
	Goodput             int

	// Errors are invariant violations; empty means the run passed.
	Errors []string
	// Trace is the full event trace when Config.Trace was set.
	Trace []string
}

// Failed reports whether the run broke an invariant.
func (r Report) Failed() bool { return len(r.Errors) > 0 || r.Violations > 0 }

func withDefaults(cfg Config) Config {
	if cfg.Clients <= 0 {
		cfg.Clients = 4
	}
	if cfg.Ops <= 0 {
		cfg.Ops = 40
	}
	if cfg.Scenario == "" {
		cfg.Scenario = ScenarioMixed
	}
	if cfg.LeaseSweep <= 0 {
		cfg.LeaseSweep = 2 * time.Millisecond
	}
	if cfg.MaxIdle == 0 {
		if cfg.Scenario == ScenarioAbortStorm || cfg.Scenario == ScenarioOverload {
			// Eviction restarts a name's token sequence, which would
			// blunt the storm's token-monotonicity-across-abort check;
			// the storm keeps its names hot anyway.
			cfg.MaxIdle = -1
		} else {
			cfg.MaxIdle = 15 * cfg.LeaseSweep
		}
	}
	if cfg.Faults == (dst.Faults{}) {
		cfg.Faults = dst.Faults{
			DelayMin:     20 * time.Microsecond,
			DelayMax:     300 * time.Microsecond,
			ConnectDelay: 50 * time.Microsecond,
		}
	}
	return cfg
}

// run is the shared state of one simulated scenario.
type run struct {
	cfg Config
	clk *dst.SimClock
	fab *dst.Fabric
	srv *server.Server

	mon         monitor
	clientsDone atomic.Int64
	actorCount  int64
	kaActive    atomic.Int64
	wantEvict   bool
	// strict enables the expectation checks that only hold on a
	// fault-free (delays-only) fabric: byte-level corruption can morph
	// a frame into a different valid request, and injected resets kill
	// heartbeats, so under such fault mixes only the unconditional
	// invariants (exclusion, monotonicity, lease bounds, ≤1 leader,
	// drain liveness) are asserted.
	strict bool
}

// monitor accumulates counters and invariant errors. All writers are
// managed actors, so under the simulation every access is serialized by
// the scheduler; the mutex makes the type safe for real-clock use too.
type monitor struct {
	mu         sync.Mutex
	acquires   int
	releases   int
	busy       int
	fenced     int
	extends    int
	elections  int
	fuzzed     int
	redials    int
	cancels    int
	hangups    int
	goodput    int
	cancelMax  time.Duration
	aborts     uint64
	recovered  uint64
	slotsLeft  int64
	errs       []string
	seen       map[string]bool
	maxTok     map[string]uint64
	leaders    map[string]map[uint64]int
	srvLeaders map[string]map[uint64]int
	conns      []*dst.SimConn
}

const maxErrors = 20

// errOnce records an invariant violation, deduplicated by key so a
// per-step check can't flood the report.
func (m *monitor) errOnce(key, format string, args ...interface{}) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.seen == nil {
		m.seen = map[string]bool{}
	}
	if m.seen[key] || len(m.errs) >= maxErrors {
		return
	}
	m.seen[key] = true
	m.errs = append(m.errs, fmt.Sprintf(format, args...))
}

func (m *monitor) add(field *int, n int) {
	m.mu.Lock()
	*field += n
	m.mu.Unlock()
}

// Run executes one scenario to completion and reports. The error is
// non-nil only for setup failures; invariant violations land in
// Report.Errors.
func Run(cfg Config) (Report, error) {
	cfg = withDefaults(cfg)
	clk := dst.NewSimClock()
	clk.RecordTrace(cfg.Trace)
	fab := dst.NewFabric(clk, cfg.Seed)
	fab.SetFaults(cfg.Faults)
	ln, err := fab.Listen("tasd")
	if err != nil {
		return Report{}, err
	}

	r := &run{cfg: cfg, clk: clk, fab: fab}
	r.strict = cfg.Faults.DropProb == 0 && cfg.Faults.DupProb == 0 &&
		cfg.Faults.CorruptProb == 0 && cfg.Faults.ResetProb == 0
	r.wantEvict = cfg.MaxIdle > 0 && cfg.Scenario != ScenarioElect && cfg.Scenario != ScenarioFuzz
	maxIdle := cfg.MaxIdle
	if maxIdle < 0 {
		maxIdle = 0
	}
	scfg := server.Config{
		MaxClients: 2*cfg.Clients + 8,
		Seed:       int64(cfg.Seed + 0x5eed),
		LeaseSweep: cfg.LeaseSweep,
		MaxIdle:    maxIdle,
		Clock:      clk,
		Listener:   ln,
	}
	if cfg.Scenario == ScenarioOverload {
		scfg.MaxWaiters = overloadMaxWaiters
		scfg.MaxInflight = overloadMaxInflight
		scfg.WriteTimeout = overloadWriteTimeout
	}
	srv, err := server.New(scfg)
	if err != nil {
		return Report{}, err
	}
	r.srv = srv
	if err := srv.Listen(); err != nil {
		return Report{}, err
	}
	clk.OnStep(r.check)
	clk.Go(func() { _ = srv.Serve() })

	spawn := func(f func()) {
		r.actorCount++
		clk.Go(func() {
			defer r.clientsDone.Add(1)
			f()
		})
	}
	switch cfg.Scenario {
	case ScenarioLocks:
		for i := 0; i < cfg.Clients; i++ {
			i := i
			spawn(func() { r.lockClient(i, true) })
		}
	case ScenarioElect:
		for i := 0; i < cfg.Clients; i++ {
			i := i
			spawn(func() { r.electClient(i) })
		}
	case ScenarioChaos:
		for i := 0; i < cfg.Clients; i++ {
			i := i
			spawn(func() { r.lockClient(i, true) })
		}
		spawn(r.chaosActor)
	case ScenarioFuzz:
		spawn(func() { r.lockClient(0, false) })
		spawn(func() { r.fuzzActor(0) })
		spawn(func() { r.fuzzActor(1) })
	case ScenarioAbortStorm:
		spawn(func() { r.stormHolder(0) })
		for i := 0; i < cfg.Clients; i++ {
			i := i
			spawn(func() { r.stormClient(i) })
		}
		spawn(r.chaosActor)
	case ScenarioOverload:
		spawn(func() { r.overloadHolder(0) })
		for i := 0; i < cfg.Clients; i++ {
			i := i
			spawn(func() { r.overloadFlood(i) })
		}
		spawn(r.overloadSlowReader)
		spawn(r.chaosActor)
	default: // ScenarioMixed
		for i := 0; i < cfg.Clients; i++ {
			i := i
			spawn(func() { r.lockClient(i, true) })
		}
		spawn(func() { r.electClient(0) })
		spawn(func() { r.fuzzActor(0) })
		spawn(r.chaosActor)
	}
	clk.Go(r.coordinator)

	if err := clk.Wait(); err != nil {
		r.mon.errOnce("deadlock", "stuck waiters after drain: %v", err)
	}

	hash, events := clk.TraceHash()
	ov := srv.Overload()
	m := &r.mon
	m.mu.Lock()
	defer m.mu.Unlock()
	return Report{
		Seed:       cfg.Seed,
		Scenario:   cfg.Scenario,
		Events:     events,
		TraceHash:  hash,
		Virtual:    clk.VirtualNow(),
		Acquires:   m.acquires,
		Releases:   m.releases,
		Busy:       m.busy,
		Fenced:     m.fenced,
		Extends:    m.extends,
		Elections:  m.elections,
		FuzzFrames: m.fuzzed,
		Redials:    m.redials,
		Cancels:    m.cancels,
		Hangups:    m.hangups,
		Expiries:   srv.LeaseExpirations(),
		Evictions:  srv.Registry().Evictions(),
		Violations: srv.Violations(),
		Aborts:     m.aborts,
		Recovered:  m.recovered,

		SlotsOutstanding: m.slotsLeft,
		CancelLatencyMax: m.cancelMax,

		Shed:                ov.Shed,
		DeadlineExpired:     ov.DeadlineExpired,
		SlowClientEvictions: ov.SlowClientEvictions,
		QueueDepthHighWater: ov.QueueDepthHighWater,
		Goodput:             m.goodput,

		Errors: append([]string(nil), m.errs...),
		Trace:  clk.Trace(),
	}, nil
}

// check runs on every scheduler step with no actor running: the
// continuous invariant sweep.
func (r *run) check(time.Duration) {
	if v := r.srv.Violations(); v > 0 {
		r.mon.errOnce("exclusion", "server exclusion check failed %d time(s)", v)
	}
	if r.cfg.Scenario == ScenarioOverload {
		// The admission bounds are hard: the high-water marks record
		// admitted occupancy, so a single step past either bound is a
		// shed that was wrongly let through.
		o := r.srv.Overload()
		if o.QueueDepthHighWater > overloadMaxWaiters {
			r.mon.errOnce("queue-bound", "per-lock wait queue reached %d (bound %d)",
				o.QueueDepthHighWater, overloadMaxWaiters)
		}
		if o.InflightHighWater > overloadMaxInflight {
			r.mon.errOnce("inflight-bound", "global in-flight reached %d (bound %d)",
				o.InflightHighWater, overloadMaxInflight)
		}
	}
	nowNano := r.clk.Now().UnixNano()
	bound := int64(2 * r.cfg.LeaseSweep)
	r.srv.VisitLocks(func(name string, owner uint64, lease int64) {
		if owner == 0 {
			return
		}
		if watermarked(name) {
			r.mon.mu.Lock()
			if r.mon.maxTok == nil {
				r.mon.maxTok = map[string]uint64{}
			}
			prev := r.mon.maxTok[name]
			r.mon.maxTok[name] = owner
			r.mon.mu.Unlock()
			if owner < prev {
				// An eviction legitimately restarts a name's token
				// sequence (fresh incarnation); with none on record
				// a regression is a real fencing violation.
				if r.srv.Registry().Evictions() == 0 {
					r.mon.errOnce("tok-"+name, "fencing token went backwards on %q: %d after %d", name, owner, prev)
				}
				return
			}
		}
		if lease != 0 && nowNano-lease > bound {
			r.mon.errOnce("lease-"+name, "lease on %q overdue by %v (bound %v)",
				name, time.Duration(nowNano-lease), time.Duration(bound))
		}
	})
	// ≤1 leader per epoch, from the server's own election state: the
	// recorded winner of a decided epoch must never change. This is the
	// unconditional form of the invariant — the client-observed variant
	// (in electOnce) can be forged by response corruption.
	for _, es := range r.srv.Registry().ElectionStats() {
		if !es.Decided {
			continue
		}
		r.mon.mu.Lock()
		if r.mon.srvLeaders == nil {
			r.mon.srvLeaders = map[string]map[uint64]int{}
		}
		byEpoch := r.mon.srvLeaders[es.Name]
		if byEpoch == nil {
			byEpoch = map[uint64]int{}
			r.mon.srvLeaders[es.Name] = byEpoch
		}
		prev, seen := byEpoch[es.Epoch]
		if !seen {
			byEpoch[es.Epoch] = es.Winner
		}
		r.mon.mu.Unlock()
		if seen && prev != es.Winner {
			r.mon.errOnce(fmt.Sprintf("srv-leader-%s-%d", es.Name, es.Epoch),
				"server changed the winner of election %q epoch %d: proc %d then %d",
				es.Name, es.Epoch, prev, es.Winner)
		}
	}
}

// watermarked reports whether a lock name participates in the
// token-monotonicity check. Names subject to eviction are excluded: a
// fresh incarnation legitimately restarts its token sequence.
func watermarked(name string) bool {
	return len(name) > 0 && (name[0] == 'l' || name[0] == 'n') // lock*, nolease*
}

// coordinator waits for the traffic to finish, verifies eviction and
// reuse-after-eviction, then drains the server.
func (r *run) coordinator() {
	for r.clientsDone.Load() < r.actorCount || r.kaActive.Load() > 0 {
		r.clk.Sleep(500 * time.Microsecond)
	}
	if r.wantEvict {
		// Eviction needs two passes over an unchanged counter
		// signature, at least MaxIdle apart; the server runs a pass
		// every MaxIdle.
		r.clk.Sleep(3*r.cfg.MaxIdle + 2*r.cfg.LeaseSweep)
		if r.strict && r.srv.Registry().Evictions() == 0 {
			r.mon.errOnce("evict", "no eviction after %v of idleness (MaxIdle %v)",
				3*r.cfg.MaxIdle, r.cfg.MaxIdle)
		}
		// An evicted name must come back fresh and usable.
		if cl := r.connect(false); cl != nil {
			ctx := context.Background()
			tok, err := cl.Acquire(ctx, "eph0", 0)
			if err != nil {
				if r.strict {
					r.mon.errOnce("evict-reuse", "reacquiring evicted name: %v", err)
				}
			} else {
				r.mon.add(&r.mon.acquires, 1)
				if err := cl.Release(ctx, "eph0", tok); err != nil && r.strict {
					r.mon.errOnce("evict-reuse-rel", "releasing reacquired name: %v", err)
				} else if err == nil {
					r.mon.add(&r.mon.releases, 1)
				}
			}
			cl.Close()
		}
	}
	if r.cfg.Scenario == ScenarioAbortStorm || r.cfg.Scenario == ScenarioOverload {
		r.checkSlotQuiescence()
	}
	if r.cfg.Scenario == ScenarioOverload {
		o := r.srv.Overload()
		if o.InflightNow != 0 {
			r.mon.errOnce("inflight-rest",
				"%d ACQUIREs still hold admission slots after the flood quiesced", o.InflightNow)
		}
		if r.strict {
			if o.Shed == 0 && o.DeadlineExpired == 0 {
				r.mon.errOnce("no-shed", "overload run refused nothing — admission control never engaged")
			}
			if o.SlowClientEvictions == 0 {
				r.mon.errOnce("no-slow-evict", "the non-draining client was never evicted")
			}
			r.mon.mu.Lock()
			goodput := r.mon.goodput
			r.mon.mu.Unlock()
			if goodput == 0 {
				r.mon.errOnce("no-goodput", "zero grants under overload — the server shed everything")
			}
		}
	}
	// Capture the arena's abort accounting before Shutdown retires the
	// registry (a closed registry reports no per-name stats).
	var aborts, recovered uint64
	for _, ls := range r.srv.Registry().Stats() {
		aborts += ls.Aborts
		recovered += ls.Recovered
	}
	r.mon.mu.Lock()
	r.mon.aborts, r.mon.recovered = aborts, recovered
	r.mon.mu.Unlock()
	if r.cfg.Scenario == ScenarioAbortStorm && r.strict && aborts == 0 {
		r.mon.errOnce("no-aborts", "abort storm produced zero elector aborts — the scenario exercised nothing")
	}
	if err := r.srv.Shutdown(context.Background()); err != nil {
		r.mon.errOnce("drain", "shutdown: %v", err)
	}
}

// slotReclaimBudget bounds, in virtual time, how long after the last
// storm client hangs up the arena may take to return to its baseline
// slot population. The dominant term is the server's dead-peer probe,
// rate-limited to 50ms on a clock the lease sweeper refreshes once per
// sweep; the rest is slack for the abort to resolve through the elector
// and the recovered round to drain.
const slotReclaimBudget = 150 * time.Millisecond

// checkSlotQuiescence polls the arena until its live slot population
// (Gets that haven't been Put back) returns to the steady-state
// baseline of one slot per live mutex plus one per live election, and
// reports a leak if the budget expires first. Reaching baseline within
// the budget is also the scenario's server-side abort-latency bound:
// a waiter whose abort never resolved would hold the population above
// baseline forever.
func (r *run) checkSlotQuiescence() {
	reg := r.srv.Registry()
	start := r.clk.Now()
	for {
		st := reg.ArenaStats()
		outstanding := int64(st.Hits+st.Steals+st.Misses) - int64(st.Puts)
		mutexes, elections := reg.Len()
		base := int64(mutexes + elections)
		if outstanding == base {
			r.mon.mu.Lock()
			r.mon.slotsLeft = outstanding
			r.mon.mu.Unlock()
			return
		}
		if r.clk.Since(start) > slotReclaimBudget {
			r.mon.mu.Lock()
			r.mon.slotsLeft = outstanding
			r.mon.mu.Unlock()
			r.mon.errOnce("slot-leak",
				"arena stuck at %d live slots (baseline %d: %d mutexes + %d elections) %v after the storm quiesced",
				outstanding, base, mutexes, elections, slotReclaimBudget)
			return
		}
		r.clk.Sleep(r.cfg.LeaseSweep)
	}
}

// opBudget is the virtual read deadline armed before every client
// operation. On a lossy fabric a dropped frame would otherwise park the
// reader forever — virtual time advances unboundedly and the run never
// terminates. Generous enough that no healthy operation (including a
// contended blocking ACQUIRE) comes near it.
const opBudget = 250 * time.Millisecond

// simClient pairs a protocol client with its raw fabric conn and arms
// a fresh virtual read deadline before every operation. Each method
// forwards to the underlying tasclient.Client.
type simClient struct {
	cl  *tasclient.Client
	nc  net.Conn
	clk *dst.SimClock
}

func (s *simClient) arm() { s.nc.SetReadDeadline(s.clk.Now().Add(opBudget)) }

func (s *simClient) Close() error { return s.cl.Close() }

func (s *simClient) Acquire(ctx context.Context, name string, ttl time.Duration) (tasclient.Token, error) {
	s.arm()
	return s.cl.Acquire(ctx, name, ttl)
}

func (s *simClient) AcquireWithin(ctx context.Context, name string, ttl, wait time.Duration) (tasclient.Token, error) {
	s.arm()
	return s.cl.AcquireWithin(ctx, name, ttl, wait)
}

func (s *simClient) TryAcquire(ctx context.Context, name string, ttl time.Duration) (tasclient.Token, bool, error) {
	s.arm()
	return s.cl.TryAcquire(ctx, name, ttl)
}

func (s *simClient) Release(ctx context.Context, name string, tok tasclient.Token) error {
	s.arm()
	return s.cl.Release(ctx, name, tok)
}

func (s *simClient) Extend(ctx context.Context, name string, tok tasclient.Token, ttl time.Duration) error {
	s.arm()
	return s.cl.Extend(ctx, name, tok, ttl)
}

func (s *simClient) Elect(ctx context.Context, name string) (bool, uint64, error) {
	s.arm()
	return s.cl.Elect(ctx, name)
}

func (s *simClient) ResetElection(ctx context.Context, name string, epoch uint64) (uint64, error) {
	s.arm()
	return s.cl.ResetElection(ctx, name, epoch)
}

func (s *simClient) Do(ctx context.Context, ops []tasclient.Op) ([]tasclient.Result, error) {
	s.arm()
	return s.cl.Do(ctx, ops)
}

// connect dials the fabric and speaks HELLO; nil when the server is
// unreachable (drained or full). register exposes the link to the
// chaos actor.
func (r *run) connect(register bool) *simClient {
	nc, err := r.fab.Dial("tasd")
	if err != nil {
		return nil
	}
	if sc, ok := nc.(*dst.SimConn); ok && register {
		r.mon.mu.Lock()
		r.mon.conns = append(r.mon.conns, sc)
		r.mon.mu.Unlock()
	}
	nc.SetReadDeadline(r.clk.Now().Add(opBudget))
	cl, err := tasclient.NewClientConn(context.Background(), nc)
	if err != nil {
		return nil
	}
	cl.SetClock(r.clk)
	return &simClient{cl: cl, nc: nc, clk: r.clk}
}

// lockClient is the main traffic generator: a weighted mix of lock
// operations with built-in expectations. full=false keeps to plain
// leaseless traffic (the availability probe of the fuzz scenario).
func (r *run) lockClient(i int, full bool) {
	g := rng.New(r.cfg.Seed ^ (0x9e3779b97f4a7c15 * uint64(i+1)))
	ctx := context.Background()
	sweep := r.cfg.LeaseSweep
	cl := r.connect(true)
	if cl == nil {
		return
	}
	defer func() {
		if cl != nil {
			cl.Close()
		}
	}()
	redial := func() bool {
		cl.Close()
		r.mon.add(&r.mon.redials, 1)
		cl = r.connect(true)
		return cl != nil
	}
	// Touch the ephemeral names once so the eviction pass has idle
	// candidates with history.
	if full && r.wantEvict {
		name := fmt.Sprintf("eph%d", i%3)
		if tok, ok, err := cl.TryAcquire(ctx, name, 0); err == nil && ok {
			cl.Release(ctx, name, tok)
		}
	}
	kaDone := false
	for op := 0; op < r.cfg.Ops; op++ {
		if cl == nil {
			return
		}
		pick := g.Intn(100)
		if !full {
			pick = pick % 25 // leaseless acquire/release only
		}
		switch {
		case pick < 25: // leaseless blocking acquire — can never be fenced
			name := fmt.Sprintf("nolease%d", g.Intn(2))
			tok, err := cl.Acquire(ctx, name, 0)
			if err != nil {
				if !redial() {
					return
				}
				continue
			}
			r.mon.add(&r.mon.acquires, 1)
			r.clk.Sleep(time.Duration(g.Intn(int(2 * sweep))))
			err = cl.Release(ctx, name, tok)
			switch {
			case err == nil:
				r.mon.add(&r.mon.releases, 1)
			case errors.Is(err, tasclient.ErrFenced):
				if r.strict {
					r.mon.errOnce("nolease-fence", "leaseless grant on %q was fenced: %v", name, err)
				}
			default:
				if !redial() {
					return
				}
			}

		case pick < 40: // leased try-acquire, released well within TTL
			name := fmt.Sprintf("lock%d", g.Intn(3))
			ttl := 6 * sweep
			tok, ok, err := cl.TryAcquire(ctx, name, ttl)
			if err != nil {
				if !redial() {
					return
				}
				continue
			}
			if !ok {
				r.mon.add(&r.mon.busy, 1)
				continue
			}
			r.mon.add(&r.mon.acquires, 1)
			r.clk.Sleep(time.Duration(g.Intn(int(2 * sweep))))
			err = cl.Release(ctx, name, tok)
			switch {
			case err == nil:
				r.mon.add(&r.mon.releases, 1)
			case errors.Is(err, tasclient.ErrFenced):
				if r.strict {
					r.mon.errOnce("early-fence", "grant on %q fenced %v into a %v lease", name, 2*sweep, ttl)
				}
			default:
				if !redial() {
					return
				}
			}

		case pick < 52: // lease-expiry-vs-release race: either outcome is legal
			name := fmt.Sprintf("lock%d", g.Intn(3))
			ttl := 3 * sweep
			tok, err := cl.Acquire(ctx, name, ttl)
			if err != nil {
				if !redial() {
					return
				}
				continue
			}
			r.mon.add(&r.mon.acquires, 1)
			r.clk.Sleep(ttl - sweep + time.Duration(g.Intn(int(3*sweep))))
			err = cl.Release(ctx, name, tok)
			switch {
			case err == nil:
				r.mon.add(&r.mon.releases, 1)
			case errors.Is(err, tasclient.ErrFenced):
				r.mon.add(&r.mon.fenced, 1)
			default:
				if !redial() {
					return
				}
			}

		case pick < 62: // renewal: extends must carry the lease past its TTL
			name := fmt.Sprintf("lock%d", g.Intn(3))
			ttl := 3 * sweep
			tok, err := cl.Acquire(ctx, name, ttl)
			if err != nil {
				if !redial() {
					return
				}
				continue
			}
			r.mon.add(&r.mon.acquires, 1)
			lost := false
			for k := 0; k < 4 && !lost; k++ { // hold for 4×sweep > ttl
				r.clk.Sleep(sweep)
				if err := cl.Extend(ctx, name, tok, ttl); err != nil {
					if errors.Is(err, tasclient.ErrFenced) && r.strict {
						r.mon.errOnce("renew-fence", "renewed lease on %q lost: %v", name, err)
					}
					lost = true
					break
				}
				r.mon.add(&r.mon.extends, 1)
			}
			if lost {
				if !redial() {
					return
				}
				continue
			}
			err = cl.Release(ctx, name, tok)
			switch {
			case err == nil:
				r.mon.add(&r.mon.releases, 1)
			case errors.Is(err, tasclient.ErrFenced):
				if r.strict {
					r.mon.errOnce("renew-fence", "renewed lease on %q fenced at release", name)
				}
			default:
				if !redial() {
					return
				}
			}

		case pick < 70: // expiry liveness: an unrenewed lease MUST be enforced
			name := fmt.Sprintf("lock%d", g.Intn(3))
			ttl := 2 * sweep
			tok, err := cl.Acquire(ctx, name, ttl)
			if err != nil {
				if !redial() {
					return
				}
				continue
			}
			r.mon.add(&r.mon.acquires, 1)
			r.clk.Sleep(ttl + 3*sweep + sweep/2)
			err = cl.Release(ctx, name, tok)
			switch {
			case err == nil:
				if r.strict {
					r.mon.errOnce("no-expiry", "lease on %q (%v) not enforced after %v", name, ttl, ttl+3*sweep)
				}
				r.mon.add(&r.mon.releases, 1)
			case errors.Is(err, tasclient.ErrFenced):
				r.mon.add(&r.mon.fenced, 1)
			default:
				if !redial() {
					return
				}
			}

		case pick < 78: // elections with occasional resets
			if !r.electOnce(cl, &g, i) {
				if !redial() {
					return
				}
			}

		case pick < 85: // abandon: disconnect with a lock held; recovery frees it
			name := fmt.Sprintf("lock%d", g.Intn(3))
			if _, _, err := cl.TryAcquire(ctx, name, 0); err == nil {
				r.mon.add(&r.mon.acquires, 1)
			}
			if !redial() {
				return
			}

		case pick < 93 && !kaDone: // one KeepAlive episode per client
			kaDone = true
			name := fmt.Sprintf("ka%d", i)
			ttl := 4 * sweep
			tok, err := cl.Acquire(ctx, name, ttl)
			if err != nil {
				if !redial() {
					return
				}
				continue
			}
			r.mon.add(&r.mon.acquires, 1)
			// The heartbeat link is deliberately NOT registered with the
			// chaos actor: resetting it silently kills the renewals and
			// would fail the expectation below for the wrong reason. One
			// deadline covers the whole episode so a dropped renewal
			// reply can't park the heartbeat forever.
			var kc *tasclient.Client
			if nc, derr := r.fab.Dial("tasd"); derr == nil {
				nc.SetReadDeadline(r.clk.Now().Add(3*ttl + opBudget))
				if kcc, herr := tasclient.NewClientConn(ctx, nc); herr == nil {
					kcc.SetClock(r.clk)
					kc = kcc
				} else {
					nc.Close()
				}
			}
			if kc != nil {
				r.kaActive.Add(1)
				r.clk.Go(func() {
					defer r.kaActive.Add(-1)
					// Returns once the release below fences the token
					// (or the drain breaks the connection).
					kc.KeepAlive(context.Background(), name, tok, ttl)
					kc.Close()
				})
			}
			r.clk.Sleep(3 * ttl) // far past the unrenewed deadline
			err = cl.Release(ctx, name, tok)
			switch {
			case err == nil:
				r.mon.add(&r.mon.releases, 1)
			case errors.Is(err, tasclient.ErrFenced):
				if kc != nil && r.strict {
					r.mon.errOnce("ka-fence", "KeepAlive failed to hold lease on %q", name)
				}
			default:
				if !redial() {
					return
				}
			}

		default: // pipelined batch
			res, err := cl.Do(ctx, []tasclient.Op{
				{Code: tasclient.OpTryAcquire, Name: "nolease0"},
				{Code: tasclient.OpRelease, Name: "nolease0"},
				{Code: tasclient.OpStats},
			})
			if err != nil {
				if !redial() {
					return
				}
				continue
			}
			if res[0].OK {
				r.mon.add(&r.mon.acquires, 1)
				if res[1].OK {
					r.mon.add(&r.mon.releases, 1)
				}
			} else if res[0].Busy {
				r.mon.add(&r.mon.busy, 1)
			}
		}
	}
}

// electClient only runs elections.
func (r *run) electClient(i int) {
	g := rng.New(r.cfg.Seed ^ (0xbf58476d1ce4e5b9 * uint64(i+1)))
	cl := r.connect(true)
	if cl == nil {
		return
	}
	defer func() {
		if cl != nil {
			cl.Close()
		}
	}()
	for op := 0; op < r.cfg.Ops; op++ {
		if cl == nil {
			return
		}
		if !r.electOnce(cl, &g, 100+i) {
			cl.Close()
			r.mon.add(&r.mon.redials, 1)
			cl = r.connect(true)
		}
		r.clk.Sleep(time.Duration(g.Intn(int(r.cfg.LeaseSweep))))
	}
}

// electOnce joins an election, records the (name, epoch, winner) triple
// for the ≤1-leader-per-epoch invariant, and occasionally resets the
// epoch. It reports false when the connection broke.
func (r *run) electOnce(cl *simClient, g *rng.SplitMix64, who int) bool {
	ctx := context.Background()
	name := fmt.Sprintf("group%d", g.Intn(2))
	leader, epoch, err := cl.Elect(ctx, name)
	if err != nil {
		return false
	}
	r.mon.add(&r.mon.elections, 1)
	if leader {
		r.mon.mu.Lock()
		if r.mon.leaders == nil {
			r.mon.leaders = map[string]map[uint64]int{}
		}
		byEpoch := r.mon.leaders[name]
		if byEpoch == nil {
			byEpoch = map[uint64]int{}
			r.mon.leaders[name] = byEpoch
		}
		prev, seen := byEpoch[epoch]
		if !seen {
			byEpoch[epoch] = who
		}
		r.mon.mu.Unlock()
		// Only on a corruption-free fabric: a flipped bit in a response
		// payload can tell a loser it won, which no client-side check can
		// tell apart from a real violation. The server-side winner check
		// in check() stays unconditional.
		if seen && prev != who && r.strict {
			r.mon.errOnce(fmt.Sprintf("leader-%s-%d", name, epoch),
				"two leaders for election %q epoch %d: clients %d and %d", name, epoch, prev, who)
		}
	}
	if g.Coin(0.15) {
		if _, err := cl.ResetElection(ctx, name, epoch); err != nil && !errors.Is(err, tasclient.ErrFenced) {
			return false
		}
	}
	return true
}

// chaosActor injects half-open partitions and connection resets into
// live client links, on the seeded schedule.
func (r *run) chaosActor() {
	g := rng.New(r.cfg.Seed ^ 0x94d049bb133111eb)
	sweep := r.cfg.LeaseSweep
	for k := 0; k < r.cfg.Ops/2; k++ {
		r.clk.Sleep(time.Duration(int(sweep)/2 + g.Intn(int(2*sweep))))
		r.mon.mu.Lock()
		var sc *dst.SimConn
		if n := len(r.mon.conns); n > 0 {
			sc = r.mon.conns[g.Intn(n)]
		}
		r.mon.mu.Unlock()
		if sc == nil {
			continue
		}
		switch g.Intn(4) {
		case 0:
			sc.PartitionOutbound(time.Duration(g.Intn(int(2 * sweep))))
		case 1:
			sc.PartitionInbound(time.Duration(g.Intn(int(2 * sweep))))
		case 2:
			sc.PartitionOutbound(time.Duration(g.Intn(int(2 * sweep))))
			sc.PartitionInbound(time.Duration(g.Intn(int(sweep))))
		default:
			sc.Reset()
		}
	}
}

// cancelSlack is the tolerance on the client-side cancellation-latency
// assertion. The virtual clock delivers a read deadline at exactly its
// timestamp, so a blocked ACQUIRE must return the moment its fuse
// burns; the slack only absorbs the scheduling step that hands the
// deadline event back to the client actor.
const cancelSlack = time.Millisecond

// stormLongHold is how long the holder sits on a lock during its
// occasional long grants: past the server's 50ms dead-peer probe
// rate limit, so waiters that hung up during the hold are reaped —
// aborted through the elector — while still blocked, not merely found
// dead at grant time.
const stormLongHold = 60 * time.Millisecond

// stormHolder keeps the storm's locks contended so each wave's ACQUIRE
// genuinely blocks mid-election before its cancellation lands. The
// grants are leaseless, so the token watermark in check() makes any
// fencing regression across the abort/reacquire churn a hard error.
// Every few grants the holder outlasts the dead-peer probe interval
// (stormLongHold), which is what forces the server to abort hung-up
// waiters mid-wait rather than at the next round handover.
func (r *run) stormHolder(i int) {
	g := rng.New(r.cfg.Seed ^ (0xd6e8feb86659fd93 * uint64(i+1)))
	ctx := context.Background()
	sweep := r.cfg.LeaseSweep
	cl := r.connect(true)
	if cl == nil {
		return
	}
	defer func() {
		if cl != nil {
			cl.Close()
		}
	}()
	redial := func() bool {
		cl.Close()
		r.mon.add(&r.mon.redials, 1)
		cl = r.connect(true)
		return cl != nil
	}
	for op := 0; op < r.cfg.Ops; op++ {
		if cl == nil {
			return
		}
		name := fmt.Sprintf("lock%d", g.Intn(2))
		tok, err := cl.Acquire(ctx, name, 0)
		if err != nil {
			if !redial() {
				return
			}
			continue
		}
		r.mon.add(&r.mon.acquires, 1)
		hold := time.Duration(int(sweep) + g.Intn(int(2*sweep)))
		if g.Coin(0.25) {
			hold = stormLongHold + time.Duration(g.Intn(int(2*sweep)))
		}
		r.clk.Sleep(hold)
		err = cl.Release(ctx, name, tok)
		switch {
		case err == nil:
			r.mon.add(&r.mon.releases, 1)
		case errors.Is(err, tasclient.ErrFenced):
			if r.strict {
				r.mon.errOnce("storm-fence", "leaseless storm grant on %q was fenced: %v", name, err)
			}
		default:
			if !redial() {
				return
			}
		}
	}
}

// stormClient runs one wave per op: block in ACQUIRE on a contended
// lock, then cancel mid-flight — by an armed read deadline (a context
// deadline's transport-level form), an orderly close, or an abrupt
// reset, each on a seeded virtual-clock fuse — and redial for the next
// wave. A wave that wins before its fuse burns releases (or abandons)
// the grant, so the storm also churns abort-with-reacquire on the same
// names the cancellations hit.
func (r *run) stormClient(i int) {
	g := rng.New(r.cfg.Seed ^ (0xa5a3564e1fb5e152 * uint64(i+1)))
	ctx := context.Background()
	sweep := r.cfg.LeaseSweep
	for op := 0; op < r.cfg.Ops; op++ {
		cl := r.connect(true)
		if cl == nil {
			return
		}
		name := fmt.Sprintf("lock%d", g.Intn(2))
		fuse := time.Duration(int(sweep)/2 + g.Intn(int(3*sweep)))
		mode := g.Intn(3)
		var tm dst.Timer
		switch mode {
		case 0: // cancel: the read deadline fires under the blocked call
			cl.nc.SetReadDeadline(r.clk.Now().Add(fuse))
		case 1: // hangup: an orderly close under the blocked call
			cl.arm()
			nc := cl.nc
			tm = r.clk.AfterFunc(fuse, func() { nc.Close() })
		default: // reset: abrupt RST instead of a close
			if sc, ok := cl.nc.(*dst.SimConn); ok {
				cl.arm()
				tm = r.clk.AfterFunc(fuse, sc.Reset)
			} else {
				cl.nc.SetReadDeadline(r.clk.Now().Add(fuse))
				mode = 0
			}
		}
		start := r.clk.Now()
		tok, err := cl.cl.Acquire(ctx, name, 0)
		elapsed := r.clk.Since(start)
		if tm != nil {
			tm.Stop()
		}
		switch {
		case err == nil:
			r.mon.add(&r.mon.acquires, 1)
			r.clk.Sleep(time.Duration(g.Intn(int(sweep))))
			// Half the wins release cleanly; the rest abandon the grant
			// so disconnect recovery runs against the same names the
			// aborts churn.
			if g.Coin(0.5) {
				if rerr := cl.Release(ctx, name, tok); rerr == nil {
					r.mon.add(&r.mon.releases, 1)
				}
			}
		case mode == 0:
			r.mon.add(&r.mon.cancels, 1)
			r.mon.mu.Lock()
			if elapsed > r.mon.cancelMax {
				r.mon.cancelMax = elapsed
			}
			r.mon.mu.Unlock()
			if elapsed > fuse+cancelSlack {
				r.mon.errOnce("cancel-latency",
					"mid-ACQUIRE cancel returned after %v against a %v deadline", elapsed, fuse)
			}
		default:
			r.mon.add(&r.mon.hangups, 1)
		}
		cl.Close()
		r.clk.Sleep(time.Duration(g.Intn(int(sweep))))
	}
}

// overloadDeadlineBound is the slack, in lease-sweep units, allowed on
// top of a propagated wait budget before the answer must be back: two
// sweeps for the server's coarse wait-loop clock, up to two partition
// windows of 2×sweep each from the chaos actor, and the rest for fabric
// delays and round handover.
const overloadDeadlineBound = 12

// overloadHolder keeps the flood's locks contended so admission control
// has queues to bound: blocking leaseless grants with no wait budget,
// held for a few sweeps each. The holder competes under the same
// admission control as the flood, so its own ACQUIREs can come back
// BUSY — it just backs off and tries again.
func (r *run) overloadHolder(i int) {
	g := rng.New(r.cfg.Seed ^ (0xd6e8feb86659fd93 * uint64(i+1)))
	ctx := context.Background()
	sweep := r.cfg.LeaseSweep
	cl := r.connect(true)
	if cl == nil {
		return
	}
	defer func() {
		if cl != nil {
			cl.Close()
		}
	}()
	redial := func() bool {
		cl.Close()
		r.mon.add(&r.mon.redials, 1)
		cl = r.connect(true)
		return cl != nil
	}
	for op := 0; op < r.cfg.Ops; op++ {
		if cl == nil {
			return
		}
		name := fmt.Sprintf("load%d", g.Intn(2))
		tok, err := cl.Acquire(ctx, name, 0)
		switch {
		case err == nil:
		case errors.Is(err, tasclient.ErrBusy):
			r.mon.add(&r.mon.busy, 1)
			r.clk.Sleep(sweep)
			continue
		default:
			if !redial() {
				return
			}
			continue
		}
		r.mon.add(&r.mon.acquires, 1)
		r.clk.Sleep(time.Duration(int(sweep) + g.Intn(int(2*sweep))))
		err = cl.Release(ctx, name, tok)
		switch {
		case err == nil:
			r.mon.add(&r.mon.releases, 1)
		case errors.Is(err, tasclient.ErrFenced):
			if r.strict {
				r.mon.errOnce("overload-fence", "leaseless holder grant on %q was fenced: %v", name, err)
			}
		default:
			if !redial() {
				return
			}
		}
	}
}

// overloadFlood is the open-loop load generator: every wave asks for a
// grant within a small explicit budget and takes whatever answer comes
// — a grant (goodput), a BUSY (shed or server-enforced deadline expiry,
// which must arrive within the budget plus overloadDeadlineBound
// sweeps), or a broken connection (redial). No backoff between waves
// beyond a sub-sweep breather: the point is to keep the admission
// envelope saturated.
func (r *run) overloadFlood(i int) {
	g := rng.New(r.cfg.Seed ^ (0xbf58476d1ce4e5b9 * uint64(i+3)))
	ctx := context.Background()
	sweep := r.cfg.LeaseSweep
	cl := r.connect(true)
	if cl == nil {
		return
	}
	defer func() {
		if cl != nil {
			cl.Close()
		}
	}()
	redial := func() bool {
		cl.Close()
		r.mon.add(&r.mon.redials, 1)
		cl = r.connect(true)
		return cl != nil
	}
	for op := 0; op < r.cfg.Ops; op++ {
		if cl == nil {
			return
		}
		name := fmt.Sprintf("load%d", g.Intn(2))
		wait := time.Duration(int(sweep) + g.Intn(int(3*sweep)))
		bound := wait + overloadDeadlineBound*sweep
		start := r.clk.Now()
		tok, err := cl.AcquireWithin(ctx, name, 0, wait)
		elapsed := r.clk.Since(start)
		switch {
		case err == nil:
			r.mon.add(&r.mon.goodput, 1)
			r.mon.add(&r.mon.acquires, 1)
			if r.strict && elapsed > bound {
				r.mon.errOnce("deadline-bound", "grant landed %v into a %v budget (bound %v)", elapsed, wait, bound)
			}
			r.clk.Sleep(time.Duration(g.Intn(int(sweep))))
			rerr := cl.Release(ctx, name, tok)
			switch {
			case rerr == nil:
				r.mon.add(&r.mon.releases, 1)
			case errors.Is(rerr, tasclient.ErrFenced):
				if r.strict {
					r.mon.errOnce("overload-fence", "leaseless flood grant on %q was fenced: %v", name, rerr)
				}
			default:
				if !redial() {
					return
				}
			}
		case errors.Is(err, tasclient.ErrBusy):
			r.mon.add(&r.mon.busy, 1)
			if r.strict && elapsed > bound {
				r.mon.errOnce("deadline-bound", "BUSY answered %v into a %v budget (bound %v)", elapsed, wait, bound)
			}
			r.clk.Sleep(time.Duration(g.Intn(int(sweep))))
		default:
			if !redial() {
				return
			}
		}
	}
}

// overloadSlowReader models the client that stops draining: it takes a
// lock, caps its inbound fabric pipe, pipelines a pile of STATS
// requests and never reads an answer. The server's response writes park
// against the full pipe until the write timeout fires and the client is
// evicted — which must both bump the eviction counter and recover the
// held lock for the fresh, well-behaved client that asks next.
func (r *run) overloadSlowReader() {
	ctx := context.Background()
	sweep := r.cfg.LeaseSweep
	nc, err := r.fab.Dial("tasd")
	if err != nil {
		return
	}
	sc, _ := nc.(*dst.SimConn)
	nc.SetReadDeadline(r.clk.Now().Add(opBudget))
	cl, err := tasclient.NewClientConn(ctx, nc)
	if err != nil {
		nc.Close()
		return
	}
	cl.SetClock(r.clk)
	if _, err := cl.Acquire(ctx, "lslow0", 0); err != nil {
		cl.Close()
		return
	}
	r.mon.add(&r.mon.acquires, 1)
	if sc != nil {
		sc.LimitInbound(overloadInboundLimit)
	}
	// Several spaced request bursts, never reading an answer: the first
	// burst's responses fill the capped pipe, and the flush for a later
	// burst parks against it until the server's write timeout evicts us.
	// (A write into an empty pipe always completes — the pipe bounds
	// unread backlog, it doesn't refuse it — so one burst alone would
	// never stall a flush.)
	req := wire.Request{Op: wire.OpStats, ID: 1 << 20}
	nc.SetWriteDeadline(r.clk.Now().Add(opBudget))
	for burst := 0; burst < 4; burst++ {
		var buf []byte
		for k := 0; k < 16; k++ {
			buf, _ = wire.AppendRequest(buf, req)
			req.ID++
		}
		if _, err := nc.Write(buf); err != nil {
			break // already evicted — mission accomplished
		}
		r.clk.Sleep(2 * sweep)
	}
	// Sit on the grant, deaf, well past the server's write-timeout fuse.
	r.clk.Sleep(overloadWriteTimeout + 10*sweep)
	cl.Close()
	if fresh := r.connect(false); fresh != nil {
		tok, err := fresh.Acquire(ctx, "lslow0", 0)
		if err != nil {
			if r.strict {
				r.mon.errOnce("slow-recover", "lock held by the evicted slow client was not recovered: %v", err)
			}
		} else {
			r.mon.add(&r.mon.acquires, 1)
			if fresh.Release(ctx, "lslow0", tok) == nil {
				r.mon.add(&r.mon.releases, 1)
			}
		}
		fresh.Close()
	}
}

// drain reads and discards whatever the server answers until the read
// deadline (or a close) fires.
func drain(nc net.Conn, clk *dst.SimClock, d time.Duration) {
	nc.SetReadDeadline(clk.Now().Add(d))
	io.Copy(io.Discard, nc)
}
