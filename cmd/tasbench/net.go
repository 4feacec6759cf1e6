// Net mode: a load generator for a running tasd, the TCP lock service.
//
// -clients connections to the daemon at -addr each run their scenario's
// cycle over -locks named locks for -duration; then the scenario's verdict
// reads the clients' tallies and the daemon's STATS from before and after
// the run. netScenarios holds one entry per scenario: pairs (the
// throughput gate), churn (lease expiry), storm (fencing), disconnect
// (mid-ACQUIRE hangups aborted through the elector) and flood (open-loop
// overload against the daemon's admission envelope); each cycle's comment
// says what it drives. Every run also fails on an unexpected operation
// outcome, on a nonzero STATS violations counter (the server checks a
// token-keyed owner word on every grant), or below -netfloor ops/sec. No
// report file is written: the exit status is the verdict.
//
// -mode=hold is the smoke tests' lease drill: acquire holdLock with -ttl,
// hold it for -holdfor, then release, and exit 3 if the release was
// fenced.
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
	"text/tabwriter"
	"time"

	"repro/tasclient"
)

type netConfig struct {
	scenario string // a key of netScenarios
	clients  int
	locks    int
	duration time.Duration
	ttl      time.Duration // lease TTL on acquires (0 = none)
	addr     string        // the running tasd
	floor    float64       // minimum ops/sec gate (0 = off)
}

// The scenarios' fixed traffic shapes and the hold drill's lock.
const (
	pipeline     = 16                   // pairs: ACQUIRE/RELEASE pairs per pipelined batch
	abandonEvery = 8                    // churn: forget the release every Nth cycle
	floodWait    = 5 * time.Millisecond // flood: per-ACQUIRE server-side wait budget
	holdLock     = "drill"              // hold: the lock the drill acquires
)

// tally is what one client saw; runNet sums them.
type tally struct {
	pairs       int // granted ACQUIREs released cleanly
	fenced      int // granted ACQUIREs whose RELEASE was fenced
	abandoned   int // churn: grants left to the lease sweeper
	disconnects int // disconnect: ACQUIREs abandoned mid-wait
	granted     int // flood: ACQUIREs the server admitted and granted
	shed        int // flood: ACQUIREs answered BUSY
	rtts        []time.Duration
	err         error
}

// outcome is a finished run as a verdict reads it: the clients' summed
// tallies and the daemon's STATS before and after the run.
type outcome struct {
	tally
	locks         int
	before, after tasclient.Stats
}

// netScenario is one scenario of net mode.
type netScenario struct {
	needsTTL bool // -ttl must be positive
	// reclaim waits, after the traffic, for the arena's live slots to
	// settle back to one per name.
	reclaim bool
	// cycle is one client's traffic until the deadline.
	cycle func(t *tally, c *tasclient.Client, cfg netConfig, w int, deadline time.Time)
	// verdict fails the run on the scenario's own condition.
	verdict func(o outcome) error
}

var netScenarios = map[string]netScenario{
	"pairs": {cycle: (*tally).runPairs, verdict: func(o outcome) error {
		if o.before.Truncated || o.after.Truncated {
			return errors.New("cannot account its rounds: STATS was truncated (too many names)")
		}
		if r := o.rounds(); r != uint64(o.pairs) {
			return fmt.Errorf("completed %d rounds on its locks for %d pairs issued (lost or phantom acquisitions)", r, o.pairs)
		}
		return nil
	}},
	"churn": {needsTTL: true, cycle: (*tally).runChurn, verdict: func(o outcome) error {
		if exp := o.after.LeaseExpirations - o.before.LeaseExpirations; exp == 0 || o.abandoned == 0 {
			return fmt.Errorf("enforced no leases (%d expiries, %d abandoned)", exp, o.abandoned)
		}
		return nil
	}},
	"storm": {needsTTL: true, cycle: (*tally).runStorm, verdict: func(o outcome) error {
		if o.fenced == 0 {
			return errors.New("observed no fenced releases")
		}
		return nil
	}},
	"disconnect": {reclaim: true, cycle: (*tally).runDisconnect, verdict: func(o outcome) error {
		if o.disconnects == 0 {
			return errors.New("never abandoned a blocked ACQUIRE")
		}
		if o.after.Aborts == o.before.Aborts {
			return errors.New("drove no elector aborts — dead waiters were never reaped mid-wait")
		}
		return nil
	}},
	"flood": {reclaim: true, cycle: (*tally).runFlood, verdict: func(o outcome) error {
		st := o.after
		switch shed := st.Shed - o.before.Shed; {
		case o.shed == 0 || shed == 0:
			return fmt.Errorf("never tripped admission control (client sheds %d, server sheds %d) — start tasd with -max-waiters and -max-inflight, raise -clients or shrink -locks", o.shed, shed)
		case o.granted == 0:
			return errors.New("had zero goodput — the server shed everything")
		case st.MaxWaiters > 0 && st.QueueDepthHighWater > int64(st.MaxWaiters):
			return fmt.Errorf("queue depth high-water %d BREACHED the -max-waiters bound %d", st.QueueDepthHighWater, st.MaxWaiters)
		case st.MaxInflight > 0 && st.InflightHighWater > int64(st.MaxInflight):
			return fmt.Errorf("in-flight high-water %d BREACHED the -max-inflight bound %d", st.InflightHighWater, st.MaxInflight)
		}
		return nil
	}},
}

// rounds is how many rounds lock-0 … lock-(locks-1) completed during the
// run.
func (o outcome) rounds() uint64 {
	ours := map[string]bool{}
	for i := range o.locks {
		ours[lockName(i)] = true
	}
	var n uint64
	for _, l := range o.after.Locks {
		if ours[l.Name] {
			n += l.Rounds
		}
	}
	for _, l := range o.before.Locks {
		if ours[l.Name] {
			n -= l.Rounds
		}
	}
	return n
}

// ops is how many operations the daemon served in the run: every
// granted ACQUIRE and every RELEASE it answered, fenced ones included. A
// shed ACQUIRE is a refusal, not served, so flood's floor gates goodput.
func (o outcome) ops() int { return 2*(o.pairs+o.fenced) + o.abandoned }

func lockName(i int) string { return fmt.Sprintf("lock-%d", i) }

func runNet(out io.Writer, cfg netConfig) error {
	sc, ok := netScenarios[cfg.scenario]
	switch {
	case !ok:
		return fmt.Errorf("net: unknown -scenario %q (want pairs, churn, storm, disconnect or flood)", cfg.scenario)
	case cfg.clients < 1 || cfg.locks < 1:
		return fmt.Errorf("net: -clients (%d) and -locks (%d) must both be ≥ 1", cfg.clients, cfg.locks)
	case sc.needsTTL && cfg.ttl <= 0:
		return fmt.Errorf("net: -scenario=%s needs a positive -ttl", cfg.scenario)
	}
	before, err := stats(cfg.addr)
	if err != nil {
		return fmt.Errorf("net: before the run: %v", err)
	}
	fmt.Fprintf(out, "### net — tasd load (%s, scenario=%s, clients=%d, locks=%d, ttl=%v, D=%v)\n\n",
		cfg.addr, cfg.scenario, cfg.clients, cfg.locks, cfg.ttl, cfg.duration)

	tallies := make([]tally, cfg.clients)
	var wg sync.WaitGroup
	start := make(chan struct{})
	deadline := time.Now().Add(cfg.duration)
	for w := range tallies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := &tallies[w]
			c, err := tasclient.DialContext(context.Background(), cfg.addr)
			if err != nil {
				t.err = err
				return
			}
			defer c.Close()
			// The barrier keeps every op inside the [t0, deadline]
			// window the ops/sec division uses.
			<-start
			sc.cycle(t, c, cfg, w, deadline)
		}()
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	elapsed := time.Since(t0)

	o := outcome{locks: cfg.locks, before: before}
	for w, t := range tallies {
		if t.err != nil {
			return fmt.Errorf("net client %d: %v", w, t.err)
		}
		o.pairs += t.pairs
		o.fenced += t.fenced
		o.abandoned += t.abandoned
		o.disconnects += t.disconnects
		o.granted += t.granted
		o.shed += t.shed
		o.rtts = append(o.rtts, t.rtts...)
	}
	slices.Sort(o.rtts)
	ops := o.ops()
	opsPerSec := float64(ops) / elapsed.Seconds()

	if sc.reclaim {
		o.after, err = awaitSlotReclaim(cfg.addr, cfg.scenario, 3*time.Second)
	} else {
		o.after, err = stats(cfg.addr)
	}
	if err != nil {
		return fmt.Errorf("net: after the run: %v", err)
	}

	st := o.after
	fmt.Fprintln(out, "== tasd: sustained lock traffic over TCP (protocol v3) ==")
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "scenario\tops\tops/sec\twait p50\twait p99\trounds\texpiries\tfenced\taborts\tslots out\tviolations")
	fmt.Fprintf(tw, "%s\t%d\t%.0f\t%v\t%v\t%d\t%d\t%d\t%d\t%d\t%d\n",
		cfg.scenario, ops, opsPerSec,
		percentile(o.rtts, 0.50).Round(time.Microsecond), percentile(o.rtts, 0.99).Round(time.Microsecond),
		o.rounds(), st.LeaseExpirations-before.LeaseExpirations, o.fenced, st.Aborts-before.Aborts,
		liveSlots(st), st.Violations)
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprint(out, "note: ops counts granted ACQUIREs and answered RELEASEs (fenced too) individually; wait = batch round-trip over the wire.\n"+
		"note: rounds, expiries and aborts are this run's STATS deltas; rounds counts the scenario's locks (pairs: must equal ops/2).\n"+
		"note: violations = server-side token-keyed owner check failures (must be 0); slots out = live arena slots after the run.\n\n")
	if offered := o.granted + o.shed; offered > 0 {
		fmt.Fprintf(out, "flood: offered %d ACQUIREs (%.0f/sec), goodput %d (%.0f/sec), shed %d (%.1f%% — client) / %d (server), "+
			"deadline-expired %d, queue high-water %d/%d, in-flight high-water %d/%d, wait budget %v\n\n",
			offered, float64(offered)/elapsed.Seconds(),
			o.granted, float64(o.granted)/elapsed.Seconds(),
			o.shed, 100*float64(o.shed)/float64(offered), st.Shed-before.Shed,
			st.DeadlineExpired-before.DeadlineExpired, st.QueueDepthHighWater, st.MaxWaiters,
			st.InflightHighWater, st.MaxInflight, floodWait)
	}

	if st.Violations != 0 {
		return fmt.Errorf("net: SERVER COUNTED %d MUTUAL-EXCLUSION VIOLATIONS", st.Violations)
	}
	if err := sc.verdict(o); err != nil {
		return fmt.Errorf("net: %s scenario: %v", cfg.scenario, err)
	}
	if cfg.floor > 0 && opsPerSec < cfg.floor {
		return fmt.Errorf("net: %.0f ops/sec below the %.0f floor", opsPerSec, cfg.floor)
	}
	return nil
}

// runPairs is the pairs scenario: pipelined ACQUIRE(ttl)/RELEASE(token)
// pairs, releases prompt — leases never fire, the throughput gate.
func (t *tally) runPairs(c *tasclient.Client, cfg netConfig, w int, deadline time.Time) {
	// Pre-build the batch shape once; names cycle through the lock set,
	// offset per client so contention spreads. Tokens are granted per
	// batch, so RELEASE uses the v1-style server-tracked token (0) —
	// the server still verifies its own record.
	batch := make([]tasclient.Op, 0, 2*pipeline)
	for i := 0; i < pipeline; i++ {
		name := lockName((w + i) % cfg.locks)
		batch = append(batch,
			tasclient.Op{Code: tasclient.OpAcquire, Name: name, TTL: cfg.ttl},
			tasclient.Op{Code: tasclient.OpRelease, Name: name},
		)
	}
	for time.Now().Before(deadline) {
		t0 := time.Now()
		out, err := c.Do(context.Background(), batch)
		if err != nil {
			t.err = err
			return
		}
		for i, r := range out {
			if !r.OK {
				t.err = fmt.Errorf("batch op %d (%s %s): %+v", i, [2]string{"ACQUIRE", "RELEASE"}[i%2], batch[i].Name, r)
				return
			}
		}
		t.pairs += pipeline
		t.sample(t0)
	}
}

// runChurn is the lease-churn scenario: every abandonEvery-th cycle the
// client skips its release, leaving recovery to the server's lease
// sweeper. Abandoned grants surface on the next acquire of the same
// name (possibly blocking until expiry), so the run as a whole proves
// recovery within TTL under sustained churn.
func (t *tally) runChurn(c *tasclient.Client, cfg netConfig, w int, deadline time.Time) {
	ctx := context.Background()
	cycle := 0
	// A connected client that abandons a grant still holds it until the
	// sweeper fences it; re-acquiring the same name before then is a
	// (correctly rejected) reentrant acquire. Track our own abandoned
	// names and steer clear until the lease has surely lapsed.
	abandoned := map[string]time.Time{}
	grace := cfg.ttl * 3
	for time.Now().Before(deadline) {
		name := lockName((w + cycle) % cfg.locks)
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
			t.err = fmt.Errorf("churn acquire %s: %v", name, err)
			return
		}
		cycle++
		if cycle%abandonEvery == 0 {
			t.abandoned++ // leave it to the lease sweeper
			abandoned[name] = time.Now()
			continue
		}
		if err := c.Release(ctx, name, tok); err != nil {
			if errors.Is(err, tasclient.ErrFenced) {
				t.fenced++ // sweeper got there first; legal under churn
				continue
			}
			t.err = fmt.Errorf("churn release %s: %v", name, err)
			return
		}
		t.pairs++
		t.sample(t0)
	}
}

// runStorm is the fencing storm: hold past the TTL on purpose, then
// release with the stale token and demand StatusFenced. Every client
// does this concurrently on the shared lock set.
func (t *tally) runStorm(c *tasclient.Client, cfg netConfig, w int, deadline time.Time) {
	ctx := context.Background()
	cycle := 0
	for time.Now().Before(deadline) {
		name := lockName((w + cycle) % cfg.locks)
		cycle++
		t0 := time.Now()
		tok, err := c.Acquire(ctx, name, cfg.ttl)
		if err != nil {
			t.err = fmt.Errorf("storm acquire %s: %v", name, err)
			return
		}
		time.Sleep(cfg.ttl + cfg.ttl/2) // deliberately outlive the lease
		err = c.Release(ctx, name, tok)
		switch {
		case errors.Is(err, tasclient.ErrFenced):
			t.fenced++
		case err == nil:
			// The sweeper may not have fired yet on a quiet lock; a
			// clean release is acceptable, just not countable.
			t.pairs++
		default:
			t.err = fmt.Errorf("storm release %s: %v", name, err)
			return
		}
		t.sample(t0)
	}
}

// runDisconnect is the disconnect-storm drill: worker w plays a slow
// holder of lock-w while w < locks and w < clients/2 (its grants outlast
// the server's 50ms dead-peer probe rate limit), and every other worker
// blocks in ACQUIRE behind one and then hangs up mid-wait — a context
// deadline breaks the connection without a frame boundary, exactly like
// a crashed client. The server must abort each abandoned waiter through
// the elector and recycle its round; runNet verifies that afterwards via
// STATS.
func (t *tally) runDisconnect(c *tasclient.Client, cfg netConfig, w int, deadline time.Time) {
	bg := context.Background()
	if w < cfg.locks && w < cfg.clients/2 {
		// Holder: keep lock-w held in long beats so waiters pile up and
		// their hangups are discovered mid-wait, not at grant time.
		name := lockName(w)
		for time.Now().Before(deadline) {
			t0 := time.Now()
			tok, err := c.Acquire(bg, name, 0)
			if err != nil {
				t.err = fmt.Errorf("disconnect holder %s: %v", name, err)
				return
			}
			t.sample(t0)
			time.Sleep(80 * time.Millisecond)
			if err := c.Release(bg, name, tok); err != nil {
				t.err = fmt.Errorf("disconnect holder release %s: %v", name, err)
				return
			}
			t.pairs++
		}
		return
	}
	// Stormer: block behind a holder, hang up mid-wait, redial, repeat.
	cycle := 0
	for time.Now().Before(deadline) {
		name := lockName((w + cycle) % cfg.locks)
		cycle++
		ctx, cancel := context.WithTimeout(bg, time.Duration(5+w%7)*time.Millisecond)
		t0 := time.Now()
		tok, err := c.Acquire(ctx, name, 0)
		cancel()
		if err == nil {
			// Slipped in between holder beats; release and go again.
			t.sample(t0)
			if rerr := c.Release(bg, name, tok); rerr == nil {
				t.pairs++
			}
			continue
		}
		// The timed-out ACQUIRE abandoned the stream mid-operation; the
		// close below is what the server's dead-peer probe discovers.
		t.disconnects++
		c.Close()
		c = nil
		for time.Now().Before(deadline) {
			if c, err = tasclient.DialContext(bg, cfg.addr); err == nil {
				break
			}
			// Transiently full while the server reaps our corpses.
			time.Sleep(2 * time.Millisecond)
		}
		if c == nil {
			return
		}
	}
	c.Close()
}

// runFlood is the open-loop overload drill: every worker offers
// AcquireWithin(floodWait) as fast as the wire turns around, takes BUSY
// for an answer, and never backs off — offered load is whatever the
// connection can carry, not what the server can serve. Grants are
// released promptly (goodput), sheds go straight back to offering. Only
// admitted operations contribute RTT samples; a shed is an answer, not a
// latency.
func (t *tally) runFlood(c *tasclient.Client, cfg netConfig, w int, deadline time.Time) {
	bg := context.Background()
	cycle := 0
	for time.Now().Before(deadline) {
		name := lockName((w + cycle) % cfg.locks)
		cycle++
		t0 := time.Now()
		tok, err := c.AcquireWithin(bg, name, cfg.ttl, floodWait)
		switch {
		case err == nil:
			t.granted++
			t.sample(t0)
			if rerr := c.Release(bg, name, tok); rerr != nil {
				t.err = fmt.Errorf("flood release %s: %v", name, rerr)
				return
			}
			t.pairs++
		case errors.Is(err, tasclient.ErrBusy):
			t.shed++ // the degradation contract: a clean refusal, connection intact
		default:
			t.err = fmt.Errorf("flood acquire %s: %v", name, err)
			return
		}
	}
}

// sampleCap bounds per-worker latency sample memory; past the cap the
// run keeps counting ops but stops recording new samples.
const sampleCap = 1 << 18

// sample records the latency of an operation that began at t0.
func (t *tally) sample(t0 time.Time) {
	if len(t.rtts) < sampleCap {
		t.rtts = append(t.rtts, time.Since(t0))
	}
}

func percentile(d []time.Duration, p float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	return d[int(p*float64(len(d)-1))]
}

// stats reads one STATS snapshot on a connection of its own.
func stats(addr string) (tasclient.Stats, error) {
	c, err := tasclient.DialContext(context.Background(), addr)
	if err != nil {
		return tasclient.Stats{}, err
	}
	defer c.Close()
	return c.Stats(context.Background())
}

// liveSlots is the arena's live slot population: Gets not yet Put back.
func liveSlots(st tasclient.Stats) int64 {
	return int64(st.Arena.Hits+st.Arena.Steals+st.Arena.Misses) - int64(st.Arena.Puts)
}

// awaitSlotReclaim polls STATS until the arena's live slot population
// settles to the steady-state baseline of one slot per live named lock
// plus one per live election — both read from the same snapshot, so the
// drill also works against a daemon that has names from earlier runs —
// and returns that snapshot. An unrecovered winnerless round, or a shed
// request that kept its slot, would hold the population above baseline
// forever, so equality within the budget is the no-residue gate.
func awaitSlotReclaim(addr, scenario string, budget time.Duration) (tasclient.Stats, error) {
	start := time.Now()
	last, want := int64(-1), int64(-1)
	for {
		// A failed probe is transient right after a storm (connection
		// slots still held by corpses the server is reaping), so only
		// the budget turns it fatal.
		if st, err := stats(addr); err == nil {
			if st.Truncated {
				return st, errors.New("STATS truncated — too many names to compute the slot baseline")
			}
			last, want = liveSlots(st), int64(len(st.Locks)+len(st.Elections))
			if last == want {
				return st, nil
			}
		}
		if time.Since(start) > budget {
			return tasclient.Stats{}, fmt.Errorf("arena stuck at %d live slots (want %d) %v after the %s run — aborted or shed waiters leaked",
				last, want, budget, scenario)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// runHold is -mode=hold: the smoke-test client. It acquires holdLock
// with a lease, holds it for holdfor (surviving SIGSTOP — the point of
// the drill), then releases. Exit codes: 0 clean release, 3 the release
// was fenced (the lease expired mid-hold).
func runHold(addr string, ttl, holdfor time.Duration) error {
	c, err := tasclient.DialContext(context.Background(), addr)
	if err != nil {
		return err
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	tok, err := c.Acquire(ctx, holdLock, ttl)
	if err != nil {
		return err
	}
	fmt.Printf("hold: acquired %q token %d (ttl %v), holding %v\n", holdLock, tok, ttl, holdfor)
	time.Sleep(holdfor)
	if err := c.Release(context.Background(), holdLock, tok); err != nil {
		if errors.Is(err, tasclient.ErrFenced) {
			fmt.Printf("hold: release fenced — the lease expired mid-hold\n")
			os.Exit(3)
		}
		return err
	}
	fmt.Printf("hold: released cleanly\n")
	return nil
}
