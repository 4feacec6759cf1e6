// Net mode: a loopback load generator for tasd, the TCP lock service —
// now covering the v2 fenced/leased surface.
//
// By default it boots an in-process server on an ephemeral loopback
// port (use -addr to target a standalone tasd) and drives it from
// -clients concurrent connections, each issuing pipelined batches of
// -pipeline operations spread across -locks named locks. Three
// scenarios exercise the redesigned path:
//
//	pairs  (default) ACQUIRE/RELEASE pairs; with -ttl every acquire
//	       carries a lease, releases are prompt, so the lease machinery
//	       rides the hot path without ever firing — the throughput
//	       regression gate for the v2 redesign.
//	churn  every -abandon-th cycle per client "forgets" its release and
//	       relies on server-side lease expiry to free the lock: sustained
//	       lease-churn, recovery verified by the run completing and the
//	       expiry counters moving.
//	storm  fencing storm: clients deliberately hold past the TTL, then
//	       release with the (now stale) token and require StatusFenced —
//	       the end-to-end fencing contract under load.
//
//	disconnect  disconnect storm: slow holders keep the locks pinned
//	       while every other client blocks in ACQUIRE and hangs up
//	       mid-wait; the run passes only if the server aborts every
//	       abandoned waiter through the elector and the arena's slot
//	       population returns to one slot per lock within budget.
//
//	flood  open-loop overload (protocol v3): the in-process server gets
//	       a deliberately small admission envelope (-max-waiters 2 per
//	       lock) and every client hammers AcquireWithin(-wait) with no
//	       backoff, taking BUSY for an answer instead of slowing down.
//	       Reports offered load vs goodput, shed rate, and admitted-op
//	       p99; fails if the server sheds nothing, grants nothing,
//	       breaches its own queue bound, violates exclusion, or leaks
//	       arena slots.
//
// Printed: total ops/sec, batch round-trip ("wait") p50/p99, lease
// expiries, fenced releases, and the server's own counters. Mutual
// exclusion is verified server-side — every granted acquisition checks
// a token-keyed per-lock owner word — and the run fails if the STATS
// violations counter is nonzero, if any operation errs unexpectedly, or
// (when we own the server, pairs scenario) if the per-lock round counts
// don't account for every pair issued. No report file is written: the
// exit status is the verdict.
//
// A second mode, -mode=hold, is a tiny client for smoke tests: acquire
// one lock with a lease, hold it for -holdfor, then release and report
// whether the release was fenced (exit 3) — the CI drill that freezes a
// holder mid-hold and asserts lease recovery within the TTL.
//
// Usage:
//
//	tasbench -mode=net [-scenario pairs|churn|storm|disconnect|flood]
//	         [-clients C] [-pipeline D] [-locks L] [-duration D] [-ttl TTL]
//	         [-abandon N] [-wait D] [-addr host:port]
//	         [-netfloor OPS] [-algo combined] [-seed S]
//	tasbench -mode=hold [-addr host:port] [-holdlock NAME] [-ttl TTL]
//	         [-holdfor D]
package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"text/tabwriter"
	"time"

	randtas "repro"
	"repro/internal/server"
	"repro/tasclient"
)

type netConfig struct {
	scenario string // pairs, churn, storm, disconnect, flood
	clients  int
	pipeline int
	locks    int
	duration time.Duration
	ttl      time.Duration // lease TTL on acquires (0 = none)
	abandon  int           // churn: forget every Nth release
	wait     time.Duration // flood: per-ACQUIRE server-side wait budget
	addr     string        // "" = in-process loopback server
	algo     string        // in-process server's algorithm
	seed     int64
	floor    float64 // minimum ops/sec gate (0 = off)
}

type netWorker struct {
	pairs       int
	fenced      int
	abandoned   int
	disconnects int
	granted     int // flood: ACQUIREs the server admitted and granted
	shed        int // flood: ACQUIREs answered BUSY
	rtts        []time.Duration
	err         error
}

func runNet(cfg netConfig) error {
	if cfg.clients < 1 || cfg.pipeline < 1 || cfg.locks < 1 {
		return fmt.Errorf("net: -clients (%d), -pipeline (%d) and -locks (%d) must all be ≥ 1",
			cfg.clients, cfg.pipeline, cfg.locks)
	}
	switch cfg.scenario {
	case "pairs", "churn", "storm", "disconnect", "flood":
	default:
		return fmt.Errorf("net: unknown -scenario %q (want pairs, churn, storm, disconnect or flood)", cfg.scenario)
	}
	if cfg.scenario == "churn" || cfg.scenario == "storm" {
		if cfg.ttl <= 0 {
			return fmt.Errorf("net: -scenario=%s needs a positive -ttl", cfg.scenario)
		}
	}
	if cfg.abandon < 2 {
		cfg.abandon = 8
	}
	if cfg.scenario == "flood" && cfg.wait <= 0 {
		cfg.wait = 5 * time.Millisecond
	}
	algo, err := randtas.ParseAlgorithm(cfg.algo)
	if err != nil {
		return err
	}

	addr := cfg.addr
	var srv *server.Server
	if addr == "" {
		// A slot per load connection plus slack for the stats probe; the
		// disconnect storm churns through connections faster than the
		// server reaps them, so it gets extra headroom.
		maxClients := cfg.clients + 2
		if cfg.scenario == "disconnect" {
			maxClients = 2*cfg.clients + 4
		}
		scfg := server.Config{
			Addr:       "127.0.0.1:0",
			MaxClients: maxClients,
			Algorithm:  algo,
			Seed:       cfg.seed,
		}
		if cfg.scenario == "flood" {
			// A deliberately small admission envelope so the open loop
			// saturates it: two admitted acquisitions per lock, and a
			// global budget well under clients × locks.
			scfg.MaxWaiters = 2
			scfg.MaxInflight = (3 * cfg.locks) / 2
			if scfg.MaxInflight < 4 {
				scfg.MaxInflight = 4
			}
		}
		srv, err = server.New(scfg)
		if err != nil {
			return err
		}
		if err := srv.Listen(); err != nil {
			return err
		}
		go srv.Serve()
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		}()
		addr = srv.Addr().String()
	}

	fmt.Printf("### net — tasd loopback load (%s, scenario=%s, clients=%d, pipeline=%d, locks=%d, ttl=%v, D=%v)\n\n",
		addr, cfg.scenario, cfg.clients, cfg.pipeline, cfg.locks, cfg.ttl, cfg.duration)

	workers := make([]netWorker, cfg.clients)
	var wg sync.WaitGroup
	start := make(chan struct{})
	deadline := time.Now().Add(cfg.duration)
	for w := 0; w < cfg.clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			res := &workers[w]
			c, err := tasclient.DialContext(context.Background(), addr)
			if err != nil {
				res.err = err
				return
			}
			defer c.Close()
			// The barrier keeps every op inside the [t0, deadline]
			// window the ops/sec division uses.
			<-start
			switch cfg.scenario {
			case "pairs":
				res.run(c, cfg, w, deadline)
			case "churn":
				res.runChurn(c, cfg, w, deadline)
			case "storm":
				res.runStorm(c, cfg, w, deadline)
			case "disconnect":
				res.runDisconnect(c, cfg, w, deadline, addr)
			case "flood":
				res.runFlood(c, cfg, w, deadline)
			}
		}(w)
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	elapsed := time.Since(t0)

	pairs, fenced, abandoned, disconnects, granted, shed := 0, 0, 0, 0, 0, 0
	var rtts []time.Duration
	for w := range workers {
		if workers[w].err != nil {
			return fmt.Errorf("net client %d: %v", w, workers[w].err)
		}
		pairs += workers[w].pairs
		fenced += workers[w].fenced
		abandoned += workers[w].abandoned
		disconnects += workers[w].disconnects
		granted += workers[w].granted
		shed += workers[w].shed
		rtts = append(rtts, workers[w].rtts...)
	}
	sort.Slice(rtts, func(i, j int) bool { return rtts[i] < rtts[j] })
	ops := 2 * pairs // each pair is one ACQUIRE + one RELEASE
	opsPerSec := float64(ops) / elapsed.Seconds()

	// The disconnect storm's exit condition is slot reclamation, not a
	// clock: poll STATS until the arena's live slot population settles
	// back to one slot per named lock — every abandoned mid-ACQUIRE
	// waiter aborted through the elector and its round recycled — or
	// fail loudly if that doesn't happen within the budget (dead-peer
	// probes are rate-limited to 50ms, so a few hundred ms is generous).
	// The flood's shed-never-holds-a-slot contract is checked the same
	// way: after the open loop stops offering, the arena must settle back
	// to baseline even though most ACQUIREs were refused at admission.
	if cfg.scenario == "disconnect" || cfg.scenario == "flood" {
		if err := awaitSlotReclaim(addr, 3*time.Second); err != nil {
			return err
		}
	}

	// Server-side verification: the owner-word check must never have
	// tripped, and — when the server is ours alone, in the clean pairs
	// scenario — its per-lock round counts must account for every pair
	// the generator issued.
	probe, err := tasclient.DialContext(context.Background(), addr)
	if err != nil {
		return fmt.Errorf("net: stats probe: %v", err)
	}
	st, err := probe.Stats(context.Background())
	probe.Close()
	if err != nil {
		return fmt.Errorf("net: stats probe: %v", err)
	}
	if st.Violations != 0 {
		return fmt.Errorf("net: SERVER COUNTED %d MUTUAL-EXCLUSION VIOLATIONS", st.Violations)
	}
	var rounds uint64
	for _, l := range st.Locks {
		rounds += l.Rounds
	}
	// A truncated snapshot (huge -locks counts) undercounts rounds by
	// construction; the equality gate only holds on a complete listing
	// of a clean pairs run (lease churn completes rounds via expiry).
	if srv != nil && cfg.scenario == "pairs" && !st.Truncated && rounds != uint64(pairs) {
		return fmt.Errorf("net: server completed %d rounds, generator issued %d pairs (lost or phantom acquisitions)", rounds, pairs)
	}
	switch cfg.scenario {
	case "churn":
		if st.LeaseExpirations == 0 || abandoned == 0 {
			return fmt.Errorf("net: churn scenario enforced no leases (%d expiries, %d abandoned)", st.LeaseExpirations, abandoned)
		}
	case "storm":
		if fenced == 0 {
			return fmt.Errorf("net: storm scenario observed no fenced releases")
		}
	case "disconnect":
		if disconnects == 0 {
			return fmt.Errorf("net: disconnect scenario never abandoned a blocked ACQUIRE")
		}
		if st.Aborts == 0 {
			return fmt.Errorf("net: disconnect storm drove no elector aborts — dead waiters were never reaped mid-wait")
		}
	case "flood":
		if shed == 0 || st.Shed == 0 {
			return fmt.Errorf("net: flood scenario never tripped admission control (client sheds %d, server sheds %d) — raise -clients or shrink -locks", shed, st.Shed)
		}
		if granted == 0 {
			return fmt.Errorf("net: flood scenario had zero goodput — the server shed everything")
		}
		if st.MaxWaiters > 0 && st.QueueDepthHighWater > int64(st.MaxWaiters) {
			return fmt.Errorf("net: queue depth high-water %d BREACHED the -max-waiters bound %d", st.QueueDepthHighWater, st.MaxWaiters)
		}
		if st.MaxInflight > 0 && st.InflightHighWater > int64(st.MaxInflight) {
			return fmt.Errorf("net: in-flight high-water %d BREACHED the -max-inflight bound %d", st.InflightHighWater, st.MaxInflight)
		}
	}
	outstanding := int64(st.Arena.Hits+st.Arena.Steals+st.Arena.Misses) - int64(st.Arena.Puts)

	fmt.Println("== tasd loopback: sustained lock traffic over TCP (protocol v3) ==")
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "algorithm\tscenario\tops\tops/sec\twait p50\twait p99\trounds\texpiries\tfenced\taborts\tslots out\tviolations")
	fmt.Fprintf(tw, "%s\t%s\t%d\t%.0f\t%v\t%v\t%d\t%d\t%d\t%d\t%d\t%d\n",
		algo, cfg.scenario, ops, opsPerSec,
		percentile(rtts, 0.50).Round(time.Microsecond), percentile(rtts, 0.99).Round(time.Microsecond),
		rounds, st.LeaseExpirations, fenced, st.Aborts, outstanding, st.Violations)
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Print("note: ops counts ACQUIRE and RELEASE individually; wait = batch round-trip over the wire.\n" +
		"note: violations = server-side token-keyed owner check failures (must be 0).\n" +
		"note: aborts = waiters cancelled through the elector; slots out = live arena slots after the run (one per lock).\n\n")
	if cfg.scenario == "flood" {
		offered := granted + shed
		fmt.Printf("flood: offered %d ACQUIREs (%.0f/sec), goodput %d (%.0f/sec), shed %d (%.1f%% — client) / %d (server), "+
			"deadline-expired %d, queue high-water %d/%d, in-flight high-water %d/%d, wait budget %v\n\n",
			offered, float64(offered)/elapsed.Seconds(),
			granted, float64(granted)/elapsed.Seconds(),
			shed, 100*float64(shed)/float64(offered), st.Shed,
			st.DeadlineExpired, st.QueueDepthHighWater, st.MaxWaiters,
			st.InflightHighWater, st.MaxInflight, cfg.wait)
	}

	if cfg.floor > 0 && opsPerSec < cfg.floor {
		return fmt.Errorf("net: %.0f ops/sec below the %.0f floor", opsPerSec, cfg.floor)
	}
	return nil
}

// run is the pairs scenario: pipelined ACQUIRE(ttl)/RELEASE(token)
// pairs, releases prompt — leases never fire, the throughput gate.
func (res *netWorker) run(c *tasclient.Client, cfg netConfig, w int, deadline time.Time) {
	// Pre-build the batch shape once; names cycle through the lock set,
	// offset per client so contention spreads. Tokens are granted per
	// batch, so RELEASE uses the v1-style server-tracked token (0) —
	// the server still verifies its own record.
	batch := make([]tasclient.Op, 0, 2*cfg.pipeline)
	for i := 0; i < cfg.pipeline; i++ {
		name := fmt.Sprintf("lock-%d", (w+i)%cfg.locks)
		batch = append(batch,
			tasclient.Op{Code: tasclient.OpAcquire, Name: name, TTL: cfg.ttl},
			tasclient.Op{Code: tasclient.OpRelease, Name: name},
		)
	}
	for time.Now().Before(deadline) {
		t0 := time.Now()
		out, err := c.Do(context.Background(), batch)
		if err != nil {
			res.err = err
			return
		}
		for i, r := range out {
			if !r.OK {
				res.err = fmt.Errorf("batch op %d (%s): %+v", i, opLabel(batch[i]), r)
				return
			}
		}
		res.pairs += cfg.pipeline
		if len(res.rtts) < sampleCap {
			res.rtts = append(res.rtts, time.Since(t0))
		}
	}
}

// runChurn is the lease-churn scenario: every cfg.abandon-th cycle the
// client skips its release, leaving recovery to the server's lease
// sweeper. Abandoned grants surface on the next acquire of the same
// name (possibly blocking until expiry), so the run as a whole proves
// recovery within TTL under sustained churn.
func (res *netWorker) runChurn(c *tasclient.Client, cfg netConfig, w int, deadline time.Time) {
	ctx := context.Background()
	cycle := 0
	// A connected client that abandons a grant still holds it until the
	// sweeper fences it; re-acquiring the same name before then is a
	// (correctly rejected) reentrant acquire. Track our own abandoned
	// names and steer clear until the lease has surely lapsed.
	abandoned := map[string]time.Time{}
	grace := cfg.ttl * 3
	for time.Now().Before(deadline) {
		name := fmt.Sprintf("lock-%d", (w+cycle)%cfg.locks)
		if at, ok := abandoned[name]; ok {
			if time.Since(at) < grace {
				cycle++
				time.Sleep(time.Millisecond)
				continue
			}
			delete(abandoned, name)
		}
		t0 := time.Now()
		tok, err := c.Acquire(ctx, name, cfg.ttl)
		if err != nil {
			res.err = fmt.Errorf("churn acquire %s: %v", name, err)
			return
		}
		cycle++
		if cycle%cfg.abandon == 0 {
			res.abandoned++ // leave it to the lease sweeper
			abandoned[name] = time.Now()
			continue
		}
		if err := c.Release(ctx, name, tok); err != nil {
			if errors.Is(err, tasclient.ErrFenced) {
				res.fenced++ // sweeper got there first; legal under churn
				continue
			}
			res.err = fmt.Errorf("churn release %s: %v", name, err)
			return
		}
		res.pairs++
		if len(res.rtts) < sampleCap {
			res.rtts = append(res.rtts, time.Since(t0))
		}
	}
}

// runStorm is the fencing storm: hold past the TTL on purpose, then
// release with the stale token and demand StatusFenced. Every client
// does this concurrently on the shared lock set.
func (res *netWorker) runStorm(c *tasclient.Client, cfg netConfig, w int, deadline time.Time) {
	ctx := context.Background()
	cycle := 0
	for time.Now().Before(deadline) {
		name := fmt.Sprintf("lock-%d", (w+cycle)%cfg.locks)
		cycle++
		t0 := time.Now()
		tok, err := c.Acquire(ctx, name, cfg.ttl)
		if err != nil {
			res.err = fmt.Errorf("storm acquire %s: %v", name, err)
			return
		}
		time.Sleep(cfg.ttl + cfg.ttl/2) // deliberately outlive the lease
		err = c.Release(ctx, name, tok)
		switch {
		case errors.Is(err, tasclient.ErrFenced):
			res.fenced++
		case err == nil:
			// The sweeper may not have fired yet on a quiet lock; a
			// clean release is acceptable, just not countable.
			res.pairs++
		default:
			res.err = fmt.Errorf("storm release %s: %v", name, err)
			return
		}
		if len(res.rtts) < sampleCap {
			res.rtts = append(res.rtts, time.Since(t0))
		}
	}
}

// runDisconnect is the disconnect-storm drill: worker 0 per lock plays
// a slow holder (its grants outlast the server's 50ms dead-peer probe
// rate limit), while every other worker blocks in ACQUIRE behind it and
// then hangs up mid-wait — a context deadline breaks the connection
// without a frame boundary, exactly like a crashed client. The server
// must abort each abandoned waiter through the elector and recycle its
// round; runNet verifies that afterwards via STATS (aborts > 0, slot
// population back to one per lock, zero violations).
func (res *netWorker) runDisconnect(c *tasclient.Client, cfg netConfig, w int, deadline time.Time, addr string) {
	bg := context.Background()
	if w < cfg.locks && w < cfg.clients/2 {
		// Holder: keep lock-w held in long beats so waiters pile up and
		// their hangups are discovered mid-wait, not at grant time.
		name := fmt.Sprintf("lock-%d", w)
		for time.Now().Before(deadline) {
			tok, err := c.Acquire(bg, name, 0)
			if err != nil {
				res.err = fmt.Errorf("disconnect holder %s: %v", name, err)
				return
			}
			time.Sleep(80 * time.Millisecond)
			if err := c.Release(bg, name, tok); err != nil {
				res.err = fmt.Errorf("disconnect holder release %s: %v", name, err)
				return
			}
			res.pairs++
		}
		return
	}
	// Stormer: block behind a holder, hang up mid-wait, redial, repeat.
	cycle := 0
	for time.Now().Before(deadline) {
		name := fmt.Sprintf("lock-%d", (w+cycle)%cfg.locks)
		cycle++
		ctx, cancel := context.WithTimeout(bg, time.Duration(5+w%7)*time.Millisecond)
		tok, err := c.Acquire(ctx, name, 0)
		cancel()
		if err == nil {
			// Slipped in between holder beats; release and go again.
			if rerr := c.Release(bg, name, tok); rerr == nil {
				res.pairs++
			}
			continue
		}
		// The timed-out ACQUIRE abandoned the stream mid-operation; the
		// close below is what the server's dead-peer probe discovers.
		res.disconnects++
		c.Close()
		c = nil
		for time.Now().Before(deadline) {
			if c, err = tasclient.DialContext(context.Background(), addr); err == nil {
				break
			}
			// Transiently full while the server reaps our corpses.
			time.Sleep(2 * time.Millisecond)
		}
		if c == nil {
			return
		}
	}
	if c != nil {
		c.Close()
	}
}

// runFlood is the open-loop overload drill: every worker offers
// AcquireWithin(cfg.wait) as fast as the wire turns around, takes BUSY
// for an answer, and never backs off — offered load is whatever the
// connection can carry, not what the server can serve. Grants are
// released promptly (goodput), sheds go straight back to offering. Only
// admitted operations contribute RTT samples; a shed is an answer, not
// a latency. runNet verifies afterwards that the server both shed and
// granted, honored its own admission bounds, and reclaimed every slot.
func (res *netWorker) runFlood(c *tasclient.Client, cfg netConfig, w int, deadline time.Time) {
	bg := context.Background()
	cycle := 0
	for time.Now().Before(deadline) {
		name := fmt.Sprintf("lock-%d", (w+cycle)%cfg.locks)
		cycle++
		t0 := time.Now()
		tok, err := c.AcquireWithin(bg, name, cfg.ttl, cfg.wait)
		switch {
		case err == nil:
			res.granted++
			if len(res.rtts) < sampleCap {
				res.rtts = append(res.rtts, time.Since(t0))
			}
			if rerr := c.Release(bg, name, tok); rerr != nil {
				res.err = fmt.Errorf("flood release %s: %v", name, rerr)
				return
			}
			res.pairs++
		case errors.Is(err, tasclient.ErrBusy):
			res.shed++ // the degradation contract: a clean refusal, connection intact
		default:
			res.err = fmt.Errorf("flood acquire %s: %v", name, err)
			return
		}
	}
}

// awaitSlotReclaim polls STATS until the arena's live slot population
// (Gets minus Puts) settles to the steady-state baseline of one slot
// per live named lock plus one per live election — both read from the
// same snapshot, so the drill also works against a shared server that
// has names from earlier scenarios. An unrecovered winnerless round
// would pin its slot and hold the population above baseline forever,
// so equality within the budget is the abort-leaves-no-residue gate.
func awaitSlotReclaim(addr string, budget time.Duration) error {
	start := time.Now()
	last, want := int64(-1), int64(-1)
	for {
		// Dial failures are transient right after the storm (connection
		// slots still held by corpses the server is reaping), so only
		// the budget turns them fatal.
		if probe, err := tasclient.DialContext(context.Background(), addr); err == nil {
			st, serr := probe.Stats(context.Background())
			probe.Close()
			if serr == nil {
				if st.Truncated {
					return fmt.Errorf("net: STATS truncated — too many names to compute the slot baseline")
				}
				last = int64(st.Arena.Hits+st.Arena.Steals+st.Arena.Misses) - int64(st.Arena.Puts)
				want = int64(len(st.Locks) + len(st.Elections))
				if last == want {
					return nil
				}
			}
		}
		if time.Since(start) > budget {
			return fmt.Errorf("net: arena stuck at %d live slots (want %d) %v after the disconnect storm — aborted waiters leaked",
				last, want, budget)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// runHold is -mode=hold: the smoke-test client. It acquires one lock
// with a lease, holds it for holdfor (surviving SIGSTOP — the point of
// the drill), then releases. Exit codes: 0 clean release, 3 the release
// was fenced (the lease expired mid-hold).
func runHold(addr, lock string, ttl, holdfor time.Duration) error {
	if addr == "" {
		return fmt.Errorf("hold: -addr is required")
	}
	c, err := tasclient.DialContext(context.Background(), addr)
	if err != nil {
		return err
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	tok, err := c.Acquire(ctx, lock, ttl)
	if err != nil {
		return err
	}
	fmt.Printf("hold: acquired %q token %d (ttl %v), holding %v\n", lock, tok, ttl, holdfor)
	if holdfor > 0 {
		time.Sleep(holdfor)
	}
	if err := c.Release(context.Background(), lock, tok); err != nil {
		if errors.Is(err, tasclient.ErrFenced) {
			fmt.Printf("hold: release fenced — the lease expired mid-hold\n")
			os.Exit(3)
		}
		return err
	}
	fmt.Printf("hold: released cleanly\n")
	return nil
}

func opLabel(op tasclient.Op) string {
	switch op.Code {
	case tasclient.OpAcquire:
		return "ACQUIRE " + op.Name
	case tasclient.OpRelease:
		return "RELEASE " + op.Name
	default:
		return op.Name
	}
}

// sampleCap bounds per-worker latency sample memory; past the cap the
// run keeps counting ops but stops recording new samples.
const sampleCap = 1 << 18

func percentile(d []time.Duration, p float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	i := int(p * float64(len(d)-1))
	return d[i]
}
