// Package dstrun drives a whole tasd instance plus a fleet of clients
// inside the deterministic simulation (internal/dst): one seeded
// virtual clock, one in-memory network fabric, every goroutine a
// managed actor. A scenario is reproduced byte-identically from its
// seed — same seed, same event trace — so any failure the randomized
// schedule finds can be replayed and debugged offline.
//
// Invariants are checked continuously (on every scheduler step), at
// teardown and once the run has ended:
//
//   - at most one holder per lock, via the server's own token-keyed
//     exclusion check (Violations must stay 0)
//   - fencing tokens observed on each lock incarnation's owner word are
//     monotone, and a name gets a new incarnation only once the old one
//     is retired
//   - at most one leader per election epoch
//   - an overdue lease is enforced within TTL + 2×LeaseSweep
//   - a renewed lease (EXTEND / KeepAlive) survives past its original
//     TTL unless a partition held its renewals, and an unrenewed one
//     does not
//   - idle names are evicted, and an evicted name is usable afresh
//   - after a drain no waiter is left stuck (the scheduler's deadlock
//     detector stays quiet and the run ends)
//
// Each Scenario is one entry of a table naming the actors it spawns,
// its server envelope and the checks it adds to the common ones.
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

	randtas "repro"
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

// Scenarios lists every scenario in the order a corpus rotates through
// them.
var Scenarios = []Scenario{
	ScenarioMixed,
	ScenarioLocks,
	ScenarioChaos,
	ScenarioElect,
	ScenarioFuzz,
	ScenarioAbortStorm,
	ScenarioOverload,
}

// scenario is one table entry: what a run of that Scenario spawns, the
// server envelope it runs under, and the checks it adds to the common
// ones.
type scenario struct {
	// actors spawns the scenario's actors, in order, through r.spawn.
	actors func(r *run)
	// envelope holds the server's admission limits; the rest of the
	// server config is common to every scenario.
	envelope server.Config
	// settle runs once the traffic has quiesced, before the drain.
	settle func(r *run)
	// evict expects idle names to be evicted and an evicted name to be
	// usable afresh.
	evict bool
	// quiesce is storm-style: eviction is off, and the arena's slot
	// population must return to baseline once the traffic stops.
	quiesce bool
}

var scenarios = map[Scenario]scenario{
	ScenarioMixed: {evict: true, actors: func(r *run) {
		r.clients(func(i int) { r.lockClient(i, true) })
		r.spawn(func() { r.electClient(0) })
		r.spawn(func() { r.fuzzActor(0) })
		r.spawn(r.chaosActor)
	}},
	ScenarioLocks: {evict: true, actors: func(r *run) {
		r.clients(func(i int) { r.lockClient(i, true) })
	}},
	ScenarioChaos: {evict: true, actors: func(r *run) {
		r.clients(func(i int) { r.lockClient(i, true) })
		r.spawn(r.chaosActor)
	}},
	ScenarioElect: {actors: func(r *run) { r.clients(r.electClient) }},
	ScenarioFuzz: {actors: func(r *run) {
		r.spawn(func() { r.lockClient(0, false) })
		r.spawn(func() { r.fuzzActor(0) })
		r.spawn(func() { r.fuzzActor(1) })
	}},
	ScenarioAbortStorm: {quiesce: true, settle: (*run).settleStorm, actors: func(r *run) {
		r.spawn(func() { r.stormHolder(0) })
		r.clients(r.stormClient)
		r.spawn(r.chaosActor)
	}},
	ScenarioOverload: {
		quiesce: true,
		envelope: server.Config{
			MaxWaiters:   overloadMaxWaiters,
			MaxInflight:  overloadMaxInflight,
			WriteTimeout: overloadWriteTimeout,
		},
		settle: (*run).settleOverload,
		actors: func(r *run) {
			r.spawn(func() { r.overloadHolder(0) })
			r.clients(r.overloadFlood)
			r.spawn(r.overloadSlowReader)
			r.spawn(r.chaosActor)
		},
	},
}

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

// The shape every run shares: the number of lock or elect client
// actors, the server's lease sweep (the traffic's lease TTLs derive from
// it) and its eviction threshold. Eviction is on except in the quiesce
// scenarios: it restarts a name's token sequence, which would blunt the
// storm's token-monotonicity-across-abort check, and the storm keeps its
// names hot anyway.
const (
	numClients = 4
	sweep      = 2 * time.Millisecond
	maxIdle    = 15 * sweep
)

// Config parameterizes one simulated run. The zero value of every
// field picks a sensible default.
type Config struct {
	Seed     uint64
	Ops      int      // operations per client (default 40)
	Scenario Scenario // default ScenarioMixed
	// Faults configures the fabric. A zero value gets modest link
	// delays (fault-free otherwise); pass an explicit mix for drops,
	// duplicates, corruption or resets.
	Faults dst.Faults
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
}

// Failed reports whether the run broke an invariant.
func (r Report) Failed() bool { return len(r.Errors) > 0 || r.Violations > 0 }

func withDefaults(cfg Config) Config {
	if cfg.Ops <= 0 {
		cfg.Ops = 40
	}
	if cfg.Scenario == "" {
		cfg.Scenario = ScenarioMixed
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
	sc  scenario
	clk *dst.SimClock
	fab *dst.Fabric
	srv *server.Server

	mon         *monitor
	clientsDone atomic.Int64
	actorCount  int64
	kaActive    atomic.Int64
	// strict enables the expectation checks that only hold on a
	// fault-free (delays-only) fabric: byte-level corruption can morph
	// a frame into a different valid request, and injected resets kill
	// heartbeats, so under such fault mixes only the unconditional
	// invariants (exclusion, monotonicity, lease bounds, ≤1 leader,
	// drain liveness) are asserted.
	strict bool
}

// monitor accumulates the report's counters and invariant errors. All
// writers are managed actors, so under the simulation every access is
// serialized by the scheduler; the mutex makes the type safe for
// real-clock use too.
type monitor struct {
	mu sync.Mutex
	Report
	seen       map[string]bool
	tokens     map[string]tokenMark
	leaders    map[epochKey]int // client-observed winner per epoch
	srvLeaders map[epochKey]int // server-recorded winner per epoch
	conns      []*dst.SimConn
	// healBy bounds when the chaos actor's last partition of each link
	// heals.
	healBy map[*dst.SimConn]time.Time
}

// tokenMark is the last fencing token seen on a lock name's owner word
// and the incarnation, a *randtas.Mutex, that granted it.
type tokenMark struct {
	inc incarnation
	tok uint64
}

type incarnation interface{ Retired() bool }

// epochKey names one epoch of one election.
type epochKey struct {
	name  string
	epoch uint64
}

func newMonitor(seed uint64, sc Scenario) *monitor {
	return &monitor{
		Report:     Report{Seed: seed, Scenario: sc},
		seen:       map[string]bool{},
		tokens:     map[string]tokenMark{},
		leaders:    map[epochKey]int{},
		srvLeaders: map[epochKey]int{},
		healBy:     map[*dst.SimConn]time.Time{},
	}
}

const maxErrors = 20

// errOnce records an invariant violation, deduplicated by key so a
// per-step check can't flood the report.
func (m *monitor) errOnce(key, format string, args ...interface{}) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.seen[key] || len(m.Errors) >= maxErrors {
		return
	}
	m.seen[key] = true
	m.Errors = append(m.Errors, fmt.Sprintf(format, args...))
}

func (m *monitor) inc(field *int) {
	m.mu.Lock()
	*field++
	m.mu.Unlock()
}

// fence records owner as the token that incarnation inc granted on
// name's owner word. Tokens must rise within an incarnation. A fresh one
// restarts them, but only after the old one retired: two live
// incarnations of one name would each grant the lock.
func (m *monitor) fence(name string, inc incarnation, owner uint64) {
	m.mu.Lock()
	prev, seen := m.tokens[name]
	m.tokens[name] = tokenMark{inc, owner}
	m.mu.Unlock()
	switch {
	case !seen:
	case inc != prev.inc && !prev.inc.Retired():
		m.errOnce("inc-"+name, "lock %q granted token %d by a new incarnation while the old one, at token %d, is live",
			name, owner, prev.tok)
	case inc == prev.inc && owner < prev.tok:
		m.errOnce("tok-"+name, "fencing token went backwards on %q: %d after %d", name, owner, prev.tok)
	}
}

// firstWinner records who as the winner of epoch k unless one is
// already on record, and returns the recorded winner.
func (m *monitor) firstWinner(byEpoch map[epochKey]int, k epochKey, who int) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if prev, ok := byEpoch[k]; ok {
		return prev
	}
	byEpoch[k] = who
	return who
}

// Run executes one scenario to completion and reports. The error is
// non-nil only for setup failures, including an unknown scenario;
// invariant violations land in Report.Errors.
func Run(cfg Config) (Report, error) {
	cfg = withDefaults(cfg)
	sc, ok := scenarios[cfg.Scenario]
	if !ok {
		return Report{}, fmt.Errorf("dstrun: unknown scenario %q (want one of %v)", cfg.Scenario, Scenarios)
	}
	clk := dst.NewSimClock()
	fab := dst.NewFabric(clk, cfg.Seed)
	fab.SetFaults(cfg.Faults)
	ln, err := fab.Listen("tasd")
	if err != nil {
		return Report{}, err
	}

	r := &run{cfg: cfg, sc: sc, clk: clk, fab: fab, mon: newMonitor(cfg.Seed, cfg.Scenario)}
	r.strict = cfg.Faults.DropProb == 0 && cfg.Faults.DupProb == 0 &&
		cfg.Faults.CorruptProb == 0 && cfg.Faults.ResetProb == 0
	scfg := sc.envelope
	scfg.MaxClients = 2*numClients + 8
	scfg.Seed = int64(cfg.Seed + 0x5eed)
	scfg.LeaseSweep = sweep
	if !sc.quiesce {
		scfg.MaxIdle = maxIdle
	}
	scfg.Clock = clk
	scfg.Listener = ln
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
	sc.actors(r)
	clk.Go(r.coordinator)

	if err := clk.Wait(); err != nil {
		r.mon.errOnce("deadlock", "stuck waiters after drain: %v", err)
	}
	// The admission high-water marks only rise (and stay 0 while their
	// bound is off), so one look after the run sees any breach.
	ov := srv.Overload()
	if ov.QueueDepthHighWater > int64(sc.envelope.MaxWaiters) || ov.InflightHighWater > int64(sc.envelope.MaxInflight) {
		r.mon.errOnce("admission", "admission high-water marks %d queued per lock, %d in flight; bounds %d and %d",
			ov.QueueDepthHighWater, ov.InflightHighWater, sc.envelope.MaxWaiters, sc.envelope.MaxInflight)
	}

	r.mon.mu.Lock()
	defer r.mon.mu.Unlock()
	rep := r.mon.Report
	rep.TraceHash, rep.Events = clk.TraceHash()
	rep.Virtual = clk.VirtualNow()
	rep.Expiries = srv.LeaseExpirations()
	rep.Evictions = srv.Registry().Evictions()
	rep.Violations = srv.Violations() // only rises; Failed checks it
	rep.Shed, rep.DeadlineExpired = ov.Shed, ov.DeadlineExpired
	rep.SlowClientEvictions, rep.QueueDepthHighWater = ov.SlowClientEvictions, ov.QueueDepthHighWater
	return rep, nil
}

// spawn starts one scenario actor; the coordinator waits for them all.
func (r *run) spawn(f func()) {
	r.actorCount++
	r.clk.Go(func() {
		defer r.clientsDone.Add(1)
		f()
	})
}

// clients spawns f(i) for each of the numClients client actors.
func (r *run) clients(f func(i int)) {
	for i := 0; i < numClients; i++ {
		r.spawn(func() { f(i) })
	}
}

// check runs on every scheduler step with no actor running: the
// continuous sweep, reading each invariant where the server keeps it.
func (r *run) check(time.Duration) {
	nowNano := r.clk.Now().UnixNano()
	bound := int64(2 * sweep)
	r.srv.VisitLocks(func(name string, m *randtas.Mutex, owner uint64, lease int64) {
		if owner == 0 {
			return
		}
		r.mon.fence(name, m, owner)
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
		if prev := r.mon.firstWinner(r.mon.srvLeaders, epochKey{es.Name, es.Epoch}, es.Winner); prev != es.Winner {
			r.mon.errOnce(fmt.Sprintf("srv-leader-%s-%d", es.Name, es.Epoch),
				"server changed the winner of election %q epoch %d: proc %d then %d",
				es.Name, es.Epoch, prev, es.Winner)
		}
	}
}

// coordinator waits for the traffic to finish, runs the scenario's
// settle checks, then drains the server.
func (r *run) coordinator() {
	for r.clientsDone.Load() < r.actorCount || r.kaActive.Load() > 0 {
		r.clk.Sleep(500 * time.Microsecond)
	}
	if r.sc.evict {
		// Eviction needs two passes over an unchanged counter
		// signature, at least MaxIdle apart; the server runs a pass
		// every MaxIdle.
		r.clk.Sleep(3*maxIdle + 2*sweep)
		if r.strict && r.srv.Registry().Evictions() == 0 {
			r.mon.errOnce("evict", "no eviction after %v of idleness (MaxIdle %v)",
				3*maxIdle, maxIdle)
		}
		// An evicted name must come back fresh and usable.
		r.reacquire("eph0", "evict-reuse", "reacquiring evicted name")
	}
	if r.sc.quiesce {
		r.checkSlotQuiescence()
	}
	// Capture the arena's abort accounting before Shutdown retires the
	// registry (a closed registry reports no per-name stats).
	var aborts, recovered uint64
	for _, ls := range r.srv.Registry().Stats() {
		aborts += ls.Aborts
		recovered += ls.Recovered
	}
	r.mon.mu.Lock()
	r.mon.Aborts, r.mon.Recovered = aborts, recovered
	r.mon.mu.Unlock()
	if r.sc.settle != nil {
		r.sc.settle(r)
	}
	if err := r.srv.Shutdown(context.Background()); err != nil {
		r.mon.errOnce("drain", "shutdown: %v", err)
	}
}

// settleStorm asserts the abort storm exercised the elector's abort
// path at all.
func (r *run) settleStorm() {
	if r.strict && r.mon.Aborts == 0 {
		r.mon.errOnce("no-aborts", "abort storm produced zero elector aborts — the scenario exercised nothing")
	}
}

// settleOverload asserts the flood left no admission slot behind and,
// on a strict run, that admission control engaged, the slow reader was
// evicted and grants still flowed.
func (r *run) settleOverload() {
	o := r.srv.Overload()
	if o.InflightNow != 0 {
		r.mon.errOnce("inflight-rest",
			"%d ACQUIREs still hold admission slots after the flood quiesced", o.InflightNow)
	}
	if !r.strict {
		return
	}
	if o.Shed == 0 && o.DeadlineExpired == 0 {
		r.mon.errOnce("no-shed", "overload run refused nothing — admission control never engaged")
	}
	if o.SlowClientEvictions == 0 {
		r.mon.errOnce("no-slow-evict", "the non-draining client was never evicted")
	}
	r.mon.mu.Lock()
	goodput := r.mon.Goodput
	r.mon.mu.Unlock()
	if goodput == 0 {
		r.mon.errOnce("no-goodput", "zero grants under overload — the server shed everything")
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
		if outstanding == base || r.clk.Since(start) > slotReclaimBudget {
			r.mon.mu.Lock()
			r.mon.SlotsOutstanding = outstanding
			r.mon.mu.Unlock()
			if outstanding != base {
				r.mon.errOnce("slot-leak",
					"arena stuck at %d live slots (baseline %d: %d mutexes + %d elections) %v after the storm quiesced",
					outstanding, base, mutexes, elections, slotReclaimBudget)
			}
			return
		}
		r.clk.Sleep(sweep)
	}
}

// opBudget is the virtual read deadline armed before every client
// operation. On a lossy fabric a dropped frame would otherwise park the
// reader forever — virtual time advances unboundedly and the run never
// terminates. Generous enough that no healthy operation (including a
// contended blocking ACQUIRE) comes near it.
const opBudget = 250 * time.Millisecond

// simClient pairs a protocol client with its fabric conn.
type simClient struct {
	cl  *tasclient.Client
	nc  *dst.SimConn
	clk *dst.SimClock
}

// op arms a fresh virtual read deadline for one operation and returns
// the client to run it on.
func (s *simClient) op() *tasclient.Client {
	s.nc.SetReadDeadline(s.clk.Now().Add(opBudget))
	return s.cl
}

func (s *simClient) Close() error { return s.cl.Close() }

// dial connects to tasd over the fabric and speaks HELLO under a read
// deadline budget from now; nil when the server is unreachable (drained
// or full). register exposes the link to the chaos actor.
func (r *run) dial(register bool, budget time.Duration) *simClient {
	c, err := r.fab.Dial("tasd")
	if err != nil {
		return nil
	}
	nc := c.(*dst.SimConn)
	if register {
		r.mon.mu.Lock()
		r.mon.conns = append(r.mon.conns, nc)
		r.mon.mu.Unlock()
	}
	nc.SetReadDeadline(r.clk.Now().Add(budget))
	cl, err := tasclient.NewClientConn(context.Background(), nc) // closes nc on failure
	if err != nil {
		return nil
	}
	cl.SetClock(r.clk)
	return &simClient{cl: cl, nc: nc, clk: r.clk}
}

// loop is the actor skeleton the traffic generators share: connect, run
// op Config.Ops times, and redial whenever op reports a broken
// connection by returning false. It gives up when a dial fails and
// closes the last connection when done.
func (r *run) loop(op func(cl *simClient, k int) bool) {
	cl := r.dial(true, opBudget)
	for k := 0; cl != nil && k < r.cfg.Ops; k++ {
		if !op(cl, k) {
			cl.Close()
			r.mon.inc(&r.mon.Redials)
			cl = r.dial(true, opBudget)
		}
	}
	if cl != nil {
		cl.Close()
	}
}

// release releases tok on name and counts a clean release. fenced
// reports that the grant was already fenced; ok is false when the
// connection broke instead.
func (r *run) release(cl *simClient, name string, tok tasclient.Token) (fenced, ok bool) {
	err := cl.op().Release(context.Background(), name, tok)
	if err == nil {
		r.mon.inc(&r.mon.Releases)
		return false, true
	}
	fenced = errors.Is(err, tasclient.ErrFenced)
	return fenced, fenced
}

// reacquire checks on a fresh connection, not exposed to the chaos
// actor, that name can be acquired and released; on a strict run a
// failure is an error under key.
func (r *run) reacquire(name, key, what string) {
	cl := r.dial(false, opBudget)
	if cl == nil {
		return
	}
	defer cl.Close()
	tok, err := cl.op().Acquire(context.Background(), name, 0)
	if err == nil {
		r.mon.inc(&r.mon.Acquires)
		if fenced, ok := r.release(cl, name, tok); fenced || !ok {
			err = fmt.Errorf("release failed (fenced: %v)", fenced)
		}
	}
	if err != nil && r.strict {
		r.mon.errOnce(key, "%s: %v", what, err)
	}
}

// lockClient is the main traffic generator: a weighted mix of lock
// operations with built-in expectations. full=false keeps to plain
// leaseless traffic (the availability probe of the fuzz scenario).
func (r *run) lockClient(i int, full bool) {
	g := rng.New(r.cfg.Seed ^ (0x9e3779b97f4a7c15 * uint64(i+1)))
	ctx := context.Background()
	kaDone := false
	r.loop(func(cl *simClient, k int) bool {
		// Touch the ephemeral names once so the eviction pass has idle
		// candidates with history.
		if k == 0 && full && r.sc.evict {
			name := fmt.Sprintf("eph%d", i%3)
			if tok, ok, err := cl.op().TryAcquire(ctx, name, 0); err == nil && ok {
				cl.op().Release(ctx, name, tok)
			}
		}
		pick := g.Intn(100)
		if !full {
			pick = pick % 25 // leaseless acquire/release only
		}
		switch {
		case pick < 25: // leaseless blocking acquire — can never be fenced
			name := fmt.Sprintf("nolease%d", g.Intn(2))
			tok, err := cl.op().Acquire(ctx, name, 0)
			if err != nil {
				return false
			}
			r.mon.inc(&r.mon.Acquires)
			r.clk.Sleep(time.Duration(g.Intn(int(2 * sweep))))
			fenced, ok := r.release(cl, name, tok)
			if fenced && r.strict {
				r.mon.errOnce("nolease-fence", "leaseless grant on %q was fenced", name)
			}
			return ok

		case pick < 40: // leased try-acquire, released well within TTL
			name := fmt.Sprintf("lock%d", g.Intn(3))
			ttl := 6 * sweep
			tok, ok, err := cl.op().TryAcquire(ctx, name, ttl)
			if err != nil {
				return false
			}
			if !ok {
				r.mon.inc(&r.mon.Busy)
				return true
			}
			r.mon.inc(&r.mon.Acquires)
			r.clk.Sleep(time.Duration(g.Intn(int(2 * sweep))))
			fenced, ok := r.release(cl, name, tok)
			if fenced && r.strict {
				r.mon.errOnce("early-fence", "grant on %q fenced %v into a %v lease", name, 2*sweep, ttl)
			}
			return ok

		case pick < 52: // lease-expiry-vs-release race: either outcome is legal
			name := fmt.Sprintf("lock%d", g.Intn(3))
			ttl := 3 * sweep
			tok, err := cl.op().Acquire(ctx, name, ttl)
			if err != nil {
				return false
			}
			r.mon.inc(&r.mon.Acquires)
			r.clk.Sleep(ttl - sweep + time.Duration(g.Intn(int(3*sweep))))
			fenced, ok := r.release(cl, name, tok)
			if fenced {
				r.mon.inc(&r.mon.Fenced)
			}
			return ok

		case pick < 62: // renewal: extends must carry the lease past its TTL
			name := fmt.Sprintf("lock%d", g.Intn(3))
			ttl := 3 * sweep
			start := r.clk.Now()
			// A chaos partition on this link (up to 2×sweep each way) can
			// hold the grant or an EXTEND past the lease, so the renewal
			// must hold only where none may have been in force since start.
			mustHold := func() bool {
				r.mon.mu.Lock()
				defer r.mon.mu.Unlock()
				return r.strict && !r.mon.healBy[cl.nc].After(start)
			}
			tok, err := cl.op().Acquire(ctx, name, ttl)
			if err != nil {
				return false
			}
			r.mon.inc(&r.mon.Acquires)
			for k := 0; k < 4; k++ { // hold for 4×sweep > ttl
				r.clk.Sleep(sweep)
				if err := cl.op().Extend(ctx, name, tok, ttl); err != nil {
					if errors.Is(err, tasclient.ErrFenced) && mustHold() {
						r.mon.errOnce("renew-fence", "renewed lease on %q lost: %v", name, err)
					}
					return false
				}
				r.mon.inc(&r.mon.Extends)
			}
			fenced, ok := r.release(cl, name, tok)
			if fenced && mustHold() {
				r.mon.errOnce("renew-fence", "renewed lease on %q fenced at release", name)
			}
			return ok

		case pick < 70: // expiry liveness: an unrenewed lease MUST be enforced
			name := fmt.Sprintf("lock%d", g.Intn(3))
			ttl := 2 * sweep
			tok, err := cl.op().Acquire(ctx, name, ttl)
			if err != nil {
				return false
			}
			r.mon.inc(&r.mon.Acquires)
			r.clk.Sleep(ttl + 3*sweep + sweep/2)
			fenced, ok := r.release(cl, name, tok)
			if fenced {
				r.mon.inc(&r.mon.Fenced)
			} else if ok && r.strict {
				r.mon.errOnce("no-expiry", "lease on %q (%v) not enforced after %v", name, ttl, ttl+3*sweep)
			}
			return ok

		case pick < 78: // elections with occasional resets
			return r.electOnce(cl, &g, i)

		case pick < 85: // abandon: disconnect with a lock held; recovery frees it
			name := fmt.Sprintf("lock%d", g.Intn(3))
			if _, _, err := cl.op().TryAcquire(ctx, name, 0); err == nil {
				r.mon.inc(&r.mon.Acquires)
			}
			return false

		case pick < 93 && !kaDone: // one KeepAlive episode per client
			kaDone = true
			name := fmt.Sprintf("ka%d", i)
			ttl := 4 * sweep
			tok, err := cl.op().Acquire(ctx, name, ttl)
			if err != nil {
				return false
			}
			r.mon.inc(&r.mon.Acquires)
			// The heartbeat link is deliberately NOT registered with the
			// chaos actor: resetting it silently kills the renewals and
			// would fail the expectation below for the wrong reason. One
			// deadline covers the whole episode so a dropped renewal
			// reply can't park the heartbeat forever.
			kc := r.dial(false, 3*ttl+opBudget)
			if kc != nil {
				r.kaActive.Add(1)
				r.clk.Go(func() {
					defer r.kaActive.Add(-1)
					// Returns once the release below fences the token
					// (or the drain breaks the connection).
					kc.cl.KeepAlive(ctx, name, tok, ttl)
					kc.Close()
				})
			}
			r.clk.Sleep(3 * ttl) // far past the unrenewed deadline
			fenced, ok := r.release(cl, name, tok)
			if fenced && kc != nil && r.strict {
				r.mon.errOnce("ka-fence", "KeepAlive failed to hold lease on %q", name)
			}
			return ok

		default: // pipelined batch
			res, err := cl.op().Do(ctx, []tasclient.Op{
				{Code: tasclient.OpTryAcquire, Name: "nolease0"},
				{Code: tasclient.OpRelease, Name: "nolease0"},
				{Code: tasclient.OpStats},
			})
			if err != nil {
				return false
			}
			if res[0].OK {
				r.mon.inc(&r.mon.Acquires)
				if res[1].OK {
					r.mon.inc(&r.mon.Releases)
				}
			} else if res[0].Busy {
				r.mon.inc(&r.mon.Busy)
			}
			return true
		}
	})
}

// electClient only runs elections. It keeps its own loop because it
// sleeps after a redial, not before the next operation.
func (r *run) electClient(i int) {
	g := rng.New(r.cfg.Seed ^ (0xbf58476d1ce4e5b9 * uint64(i+1)))
	cl := r.dial(true, opBudget)
	for op := 0; cl != nil && op < r.cfg.Ops; op++ {
		if !r.electOnce(cl, &g, 100+i) {
			cl.Close()
			r.mon.inc(&r.mon.Redials)
			cl = r.dial(true, opBudget)
		}
		r.clk.Sleep(time.Duration(g.Intn(int(sweep))))
	}
	if cl != nil {
		cl.Close()
	}
}

// electOnce joins an election, records the (name, epoch, winner) triple
// for the ≤1-leader-per-epoch invariant, and occasionally resets the
// epoch. It reports false when the connection broke.
func (r *run) electOnce(cl *simClient, g *rng.SplitMix64, who int) bool {
	ctx := context.Background()
	name := fmt.Sprintf("group%d", g.Intn(2))
	leader, epoch, err := cl.op().Elect(ctx, name)
	if err != nil {
		return false
	}
	r.mon.inc(&r.mon.Elections)
	// Only on a corruption-free fabric: a flipped bit in a response
	// payload can tell a loser it won, which no client-side check can
	// tell apart from a real violation. The server-side winner check in
	// check() stays unconditional.
	if leader {
		if prev := r.mon.firstWinner(r.mon.leaders, epochKey{name, epoch}, who); prev != who && r.strict {
			r.mon.errOnce(fmt.Sprintf("leader-%s-%d", name, epoch),
				"two leaders for election %q epoch %d: clients %d and %d", name, epoch, prev, who)
		}
	}
	if g.Coin(0.15) {
		if _, err := cl.op().ResetElection(ctx, name, epoch); err != nil && !errors.Is(err, tasclient.ErrFenced) {
			return false
		}
	}
	return true
}

// chaosActor injects half-open partitions and connection resets into
// live client links, on the seeded schedule.
func (r *run) chaosActor() {
	g := rng.New(r.cfg.Seed ^ 0x94d049bb133111eb)
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
			continue
		}
		// Every partition above heals within 2×sweep.
		r.mon.mu.Lock()
		r.mon.healBy[sc] = r.clk.Now().Add(2 * sweep)
		r.mon.mu.Unlock()
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
	r.loop(func(cl *simClient, _ int) bool {
		name := fmt.Sprintf("lock%d", g.Intn(2))
		tok, err := cl.op().Acquire(context.Background(), name, 0)
		if err != nil {
			return false
		}
		r.mon.inc(&r.mon.Acquires)
		hold := time.Duration(int(sweep) + g.Intn(int(2*sweep)))
		if g.Coin(0.25) {
			hold = stormLongHold + time.Duration(g.Intn(int(2*sweep)))
		}
		r.clk.Sleep(hold)
		fenced, ok := r.release(cl, name, tok)
		if fenced && r.strict {
			r.mon.errOnce("storm-fence", "leaseless storm grant on %q was fenced", name)
		}
		return ok
	})
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
	for op := 0; op < r.cfg.Ops; op++ {
		cl := r.dial(true, opBudget)
		if cl == nil {
			// Refused: hung-up waiters hold their slots until the dead-peer
			// probe or their grant. Back off and keep the waves going; the
			// refused dial spends its wave, so the storm still ends.
			r.clk.Sleep(sweep)
			continue
		}
		name := fmt.Sprintf("lock%d", g.Intn(2))
		fuse := time.Duration(int(sweep)/2 + g.Intn(int(3*sweep)))
		mode := g.Intn(3)
		// cancel (mode 0): the read deadline fires under the blocked
		// call; hangup (1) and reset (2) cut the link under it instead,
		// by an orderly close or an abrupt RST.
		deadline := opBudget
		if mode == 0 {
			deadline = fuse
		}
		cl.nc.SetReadDeadline(r.clk.Now().Add(deadline))
		var tm dst.Timer
		switch mode {
		case 1:
			tm = r.clk.AfterFunc(fuse, func() { cl.nc.Close() })
		case 2:
			tm = r.clk.AfterFunc(fuse, cl.nc.Reset)
		}
		start := r.clk.Now()
		tok, err := cl.cl.Acquire(ctx, name, 0)
		elapsed := r.clk.Since(start)
		if tm != nil {
			tm.Stop()
		}
		switch {
		case err == nil:
			r.mon.inc(&r.mon.Acquires)
			r.clk.Sleep(time.Duration(g.Intn(int(sweep))))
			// Half the wins release cleanly; the rest abandon the grant
			// so disconnect recovery runs against the same names the
			// aborts churn.
			if g.Coin(0.5) {
				r.release(cl, name, tok)
			}
		case mode == 0:
			r.mon.inc(&r.mon.Cancels)
			r.mon.mu.Lock()
			r.mon.CancelLatencyMax = max(r.mon.CancelLatencyMax, elapsed)
			r.mon.mu.Unlock()
			if elapsed > fuse+cancelSlack {
				r.mon.errOnce("cancel-latency",
					"mid-ACQUIRE cancel returned after %v against a %v deadline", elapsed, fuse)
			}
		default:
			r.mon.inc(&r.mon.Hangups)
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
	r.loop(func(cl *simClient, _ int) bool {
		name := fmt.Sprintf("load%d", g.Intn(2))
		tok, err := cl.op().Acquire(context.Background(), name, 0)
		if errors.Is(err, tasclient.ErrBusy) {
			r.mon.inc(&r.mon.Busy)
			r.clk.Sleep(sweep)
			return true
		}
		if err != nil {
			return false
		}
		r.mon.inc(&r.mon.Acquires)
		r.clk.Sleep(time.Duration(int(sweep) + g.Intn(int(2*sweep))))
		fenced, ok := r.release(cl, name, tok)
		if fenced && r.strict {
			r.mon.errOnce("overload-fence", "leaseless holder grant on %q was fenced", name)
		}
		return ok
	})
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
	r.loop(func(cl *simClient, _ int) bool {
		name := fmt.Sprintf("load%d", g.Intn(2))
		wait := time.Duration(int(sweep) + g.Intn(int(3*sweep)))
		bound := wait + overloadDeadlineBound*sweep
		start := r.clk.Now()
		tok, err := cl.op().AcquireWithin(context.Background(), name, 0, wait)
		elapsed := r.clk.Since(start)
		switch {
		case err == nil:
			r.mon.inc(&r.mon.Goodput)
			r.mon.inc(&r.mon.Acquires)
			if r.strict && elapsed > bound {
				r.mon.errOnce("deadline-bound", "grant landed %v into a %v budget (bound %v)", elapsed, wait, bound)
			}
			r.clk.Sleep(time.Duration(g.Intn(int(sweep))))
			fenced, ok := r.release(cl, name, tok)
			if fenced && r.strict {
				r.mon.errOnce("overload-fence", "leaseless flood grant on %q was fenced", name)
			}
			return ok
		case errors.Is(err, tasclient.ErrBusy):
			r.mon.inc(&r.mon.Busy)
			if r.strict && elapsed > bound {
				r.mon.errOnce("deadline-bound", "BUSY answered %v into a %v budget (bound %v)", elapsed, wait, bound)
			}
			r.clk.Sleep(time.Duration(g.Intn(int(sweep))))
			return true
		}
		return false
	})
}

// overloadSlowReader models the client that stops draining: it takes a
// lock, caps its inbound fabric pipe, pipelines a pile of STATS
// requests and never reads an answer. The server's response writes park
// against the full pipe until the write timeout fires and the client is
// evicted — which must both bump the eviction counter and recover the
// held lock for the fresh, well-behaved client that asks next.
func (r *run) overloadSlowReader() {
	ctx := context.Background()
	cl := r.dial(false, opBudget)
	if cl == nil {
		return
	}
	// The dial's read deadline still covers this first ACQUIRE.
	if _, err := cl.cl.Acquire(ctx, "lslow0", 0); err != nil {
		cl.Close()
		return
	}
	r.mon.inc(&r.mon.Acquires)
	cl.nc.LimitInbound(overloadInboundLimit)
	// Several spaced request bursts, never reading an answer: the first
	// burst's responses fill the capped pipe, and the flush for a later
	// burst parks against it until the server's write timeout evicts us.
	// (A write into an empty pipe always completes — the pipe bounds
	// unread backlog, it doesn't refuse it — so one burst alone would
	// never stall a flush.)
	req := wire.Request{Op: wire.OpStats, ID: 1 << 20}
	cl.nc.SetWriteDeadline(r.clk.Now().Add(opBudget))
	for burst := 0; burst < 4; burst++ {
		var buf []byte
		for k := 0; k < 16; k++ {
			buf, _ = wire.AppendRequest(buf, req)
			req.ID++
		}
		if _, err := cl.nc.Write(buf); err != nil {
			break // already evicted — mission accomplished
		}
		r.clk.Sleep(2 * sweep)
	}
	// Sit on the grant, deaf, well past the server's write-timeout fuse.
	r.clk.Sleep(overloadWriteTimeout + 10*sweep)
	cl.Close()
	r.reacquire("lslow0", "slow-recover", "lock held by the evicted slow client was not recovered")
}

// drain reads and discards whatever the server answers until the read
// deadline (or a close) fires.
func drain(nc net.Conn, clk *dst.SimClock, d time.Duration) {
	nc.SetReadDeadline(clk.Now().Add(d))
	io.Copy(io.Discard, nc)
}
