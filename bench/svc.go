package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/rng"
	"repro/internal/server"
	"repro/tasclient"
)

// Load shape of the service workloads: two connections (one per core of
// the 2-vCPU reference host). svc-pipelined drives each from its own
// closed loop, svc-single both from one.
const (
	svcClients    = 2
	pipelinePairs = 16 // ACQUIRE/RELEASE pairs per pipelined batch
	leaseTTL      = 5 * time.Second
)

// tasd is an in-process server plus the goroutine serving it.
type tasd struct {
	srv    *server.Server
	served chan error
}

// startServer builds, binds and serves a tasd instance. A nil listener
// binds a loopback TCP port.
func startServer(seed int64, ln net.Listener) (*tasd, error) {
	srv, err := server.New(server.Config{Addr: "127.0.0.1:0", Seed: seed, Listener: ln})
	if err != nil {
		return nil, err
	}
	if err := srv.Listen(); err != nil {
		return nil, err
	}
	t := &tasd{srv: srv, served: make(chan error, 1)}
	go func() { t.served <- srv.Serve() }()
	return t, nil
}

// stop drains the server and waits for Serve to return.
func (t *tasd) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := t.srv.Shutdown(ctx)
	if serr := <-t.served; err == nil {
		err = serr
	}
	return err
}

// dialAll opens n protocol-v3 clients on the server's TCP address.
func (t *tasd) dialAll(n int) ([]*tasclient.Client, error) {
	var cs []*tasclient.Client
	for i := 0; i < n; i++ {
		c, err := tasclient.DialContext(context.Background(), t.srv.Addr().String())
		if err != nil {
			closeAll(cs)
			return nil, err
		}
		if c.Version() != 3 {
			closeAll(append(cs, c))
			return nil, fmt.Errorf("negotiated protocol v%d, want v3", c.Version())
		}
		cs = append(cs, c)
	}
	return cs, nil
}

func closeAll(cs []*tasclient.Client) {
	for _, c := range cs {
		c.Close()
	}
}

// pipeListener hands the server one end of an in-memory net.Pipe per
// dial, so the ladder can time the server and the client without TCP.
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

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

// dial returns the client end of a fresh pipe whose server end the
// server accepts.
func (l *pipeListener) dial() (net.Conn, error) {
	c, s := net.Pipe()
	select {
	case l.conns <- s:
		return c, nil
	case <-l.done:
		c.Close()
		s.Close()
		return nil, net.ErrClosed
	}
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// pairBatch is one connection's pipelined traffic: a Do of pipelinePairs
// ACQUIRE(ttl)/RELEASE(token) pairs over names no other connection uses.
// The names are fresh, so each lock's fencing tokens run 1, 2, 3, ...:
// the batch predicts every token, sends RELEASE with it, and checks that
// ACQUIRE granted exactly it.
type pairBatch struct {
	names []string
	ops   []tasclient.Op
	want  []tasclient.Token
	pairs int64 // completed pairs, all phases
}

func newPairBatch(g *rng.SplitMix64, conn int) *pairBatch {
	b := &pairBatch{}
	for i := 0; i < pipelinePairs; i++ {
		name := fmt.Sprintf("c%d-%012x", conn, g.Next()&(1<<48-1))
		b.names = append(b.names, name)
		b.want = append(b.want, 1)
		b.ops = append(b.ops,
			tasclient.Op{Code: tasclient.OpAcquire, Name: name, TTL: leaseTTL},
			tasclient.Op{Code: tasclient.OpRelease, Name: name})
	}
	return b
}

// run sends one batch and checks every answer.
func (b *pairBatch) run(ctx context.Context, c *tasclient.Client) error {
	for i := range b.names {
		b.ops[2*i+1].Token = b.want[i]
	}
	res, err := c.Do(ctx, b.ops)
	if err != nil {
		return err
	}
	var bad error
	for i := range b.names {
		acq, rel := res[2*i], res[2*i+1]
		switch {
		case !acq.OK:
			bad = fmt.Errorf("ACQUIRE %s: %+v", b.names[i], acq)
		case acq.Token != b.want[i]:
			bad = fmt.Errorf("ACQUIRE %s granted token %d, want %d", b.names[i], acq.Token, b.want[i])
		case !rel.OK:
			bad = fmt.Errorf("RELEASE %s: %+v", b.names[i], rel)
		}
		if acq.OK {
			b.want[i] = acq.Token + 1
		}
	}
	if bad == nil {
		b.pairs += pipelinePairs
	}
	return bad
}

// checkStats fetches STATS over c and checks the service-side
// invariants: no exclusion violation ever, and, for the given pipelined
// batches, one lock round per completed pair and no contention.
func checkStats(c *tasclient.Client, batches []*pairBatch) []string {
	st, err := c.Stats(context.Background())
	if err != nil {
		return []string{fmt.Sprintf("STATS: %v", err)}
	}
	var errs []string
	if st.Violations != 0 {
		errs = append(errs, fmt.Sprintf("server counted %d exclusion violations", st.Violations))
	}
	if st.Truncated && len(batches) > 0 {
		return append(errs, "STATS truncated; cannot account for every pair")
	}
	byName := map[string][2]uint64{}
	for _, l := range st.Locks {
		byName[l.Name] = [2]uint64{l.Rounds, l.Contended}
	}
	for _, b := range batches {
		var rounds, contended uint64
		for _, name := range b.names {
			rounds += byName[name][0]
			contended += byName[name][1]
		}
		if rounds != uint64(b.pairs) {
			errs = append(errs, fmt.Sprintf("server counted %d rounds on %s…, want %d pairs", rounds, b.names[0], b.pairs))
		}
		if contended != 0 {
			errs = append(errs, fmt.Sprintf("%d contended rounds on unshared names %s…", contended, b.names[0]))
		}
	}
	return errs
}

// --- svc-pipelined ----------------------------------------------------------

func setupSvcPipelined(o *runOpts) (*load, error) {
	t, err := startServer(derive(o.seed, "server"), nil)
	if err != nil {
		return nil, err
	}
	cs, err := t.dialAll(svcClients)
	if err != nil {
		t.stop()
		return nil, err
	}
	g := rng.New(uint64(derive(o.seed, "names")))
	batches := make([]*pairBatch, svcClients)
	for i := range batches {
		batches[i] = newPairBatch(&g, i)
	}
	errs := make([]error, svcClients)
	ctx := context.Background()
	step := func(c *opCtx) (int64, int64) {
		root := c.begin(0, -1)
		defer c.end(root)
		var t0 time.Time
		if c.timed {
			t0 = time.Now()
		}
		s := c.begin(1, root)
		err := batches[c.w].run(ctx, cs[c.w])
		c.end(s)
		if c.timed {
			c.win.lat.add(time.Since(t0).Nanoseconds())
		}
		if err != nil {
			if errs[c.w] == nil {
				errs[c.w] = err
			}
			return 1, 1
		}
		return 1, 0
	}
	finish := func() []string {
		var out []string
		for _, err := range errs {
			if err != nil {
				out = append(out, err.Error())
			}
		}
		out = append(out, checkStats(cs[0], batches)...)
		closeAll(cs)
		if err := t.stop(); err != nil {
			out = append(out, fmt.Sprintf("shutdown: %v", err))
		}
		return out
	}
	return &load{workers: svcClients, sampleEvery: 1, spanNames: []string{"svc.batch", "svc.do"}, step: step, finish: finish}, nil
}

// --- svc-single -------------------------------------------------------------

// cycleRequests is the number of single-request round trips in one
// svc-single op.
const cycleRequests = 6

// svc-single's op is one cycle of six single-request round trips, sent by
// one load goroutine over two connections that swap roles every cycle.
// The holder a and the prober b run, in this order:
//
//  1. a: Acquire("hot")
//  2. b: TryAcquire("hot"), refused while a holds it
//  3. a: Release
//  4. a: Elect("leader"), leads the fresh epoch e
//  5. b: Elect("leader"), a follower of e
//  6. a: ResetElection(e), installs e+1
//
// Every cycle thus meets cross-connection contention on the lock (b's
// probe enters the round a won) and on the election (two connections
// per epoch). A fixed order, not two racing loops, decides who meets
// whom: with two loops, who waits on whom changed from run to run and
// moved the cycle p50 by 20-35% between runs of the same code.
func setupSvcSingle(o *runOpts) (*load, error) {
	t, err := startServer(derive(o.seed, "server"), nil)
	if err != nil {
		return nil, err
	}
	cs, err := t.dialAll(svcClients)
	if err != nil {
		t.stop()
		return nil, err
	}
	const (
		spanLoop = iota
		spanAcquire
		spanProbe
		spanRelease
		spanElect
		spanFollow
		spanReset
	)
	var (
		lastTok  tasclient.Token
		led      = make([][]uint64, svcClients) // epochs each connection led, in order
		cycles   int
		firstErr error
	)
	ctx := context.Background()
	// cycle runs one cycle with cs[i] as the holder and leader.
	cycle := func(c *opCtx, i int, root int) error {
		a, b := cs[i], cs[1-i]
		call := func(name int, f func() error) error {
			s := c.begin(name, root)
			defer c.end(s)
			return f()
		}
		var tok tasclient.Token
		if err := call(spanAcquire, func() (err error) {
			tok, err = a.Acquire(ctx, "hot", leaseTTL)
			return err
		}); err != nil {
			return err
		}
		if tok <= lastTok {
			return fmt.Errorf("fencing token %d after %d", tok, lastTok)
		}
		lastTok = tok
		var probed bool
		if err := call(spanProbe, func() (err error) {
			_, probed, err = b.TryAcquire(ctx, "hot", leaseTTL)
			return err
		}); err != nil {
			return err
		}
		if probed {
			return fmt.Errorf("TRYACQUIRE granted %q while token %d held it", "hot", tok)
		}
		if err := call(spanRelease, func() error { return a.Release(ctx, "hot", tok) }); err != nil {
			return err
		}
		var leader bool
		var epoch uint64
		if err := call(spanElect, func() (err error) {
			leader, epoch, err = a.Elect(ctx, "leader")
			return err
		}); err != nil {
			return err
		}
		if !leader {
			return fmt.Errorf("first vote in epoch %d lost", epoch)
		}
		led[i] = append(led[i], epoch)
		var secondLeads bool
		var seen uint64
		if err := call(spanFollow, func() (err error) {
			secondLeads, seen, err = b.Elect(ctx, "leader")
			return err
		}); err != nil {
			return err
		}
		if secondLeads || seen != epoch {
			return fmt.Errorf("second vote in epoch %d: leader=%v in epoch %d", epoch, secondLeads, seen)
		}
		var next uint64
		if err := call(spanReset, func() (err error) {
			next, err = a.ResetElection(ctx, "leader", epoch)
			return err
		}); err != nil {
			return err
		}
		if next != epoch+1 {
			return fmt.Errorf("reset of epoch %d installed %d", epoch, next)
		}
		return nil
	}
	step := func(c *opCtx) (int64, int64) {
		root := c.begin(spanLoop, -1)
		defer c.end(root)
		var t0 time.Time
		if c.timed {
			t0 = time.Now()
		}
		err := cycle(c, cycles%2, root)
		cycles++
		if c.timed {
			c.win.lat.add(time.Since(t0).Nanoseconds())
		}
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			return 1, 1
		}
		return 1, 0
	}
	finish := func() []string {
		var out []string
		if firstErr != nil {
			out = append(out, firstErr.Error())
		}
		if err := checkLeaders(led); err != nil {
			out = append(out, err.Error())
		}
		out = append(out, checkStats(cs[0], nil)...)
		closeAll(cs)
		if err := t.stop(); err != nil {
			out = append(out, fmt.Sprintf("shutdown: %v", err))
		}
		return out
	}
	return &load{workers: 1, sampleEvery: 1,
		spanNames: []string{"svc.loop", "svc.acquire", "svc.probe", "svc.release", "svc.elect", "svc.follow", "svc.reset"},
		step:      step, finish: finish}, nil
}

// checkLeaders checks the election from every client's side: no epoch
// was led twice, and, since only an epoch's leader resets it, the epochs
// led are exactly 1, 2, ..., E with no gap.
func checkLeaders(led [][]uint64) error {
	var all []uint64
	for _, l := range led {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	for i, e := range all {
		if e != uint64(i+1) {
			if i > 0 && e == all[i-1] {
				return fmt.Errorf("epoch %d had two leaders", e)
			}
			return fmt.Errorf("epoch %d led, want %d: an epoch had no leader", e, i+1)
		}
	}
	if len(all) == 0 {
		return errors.New("no client ever led an epoch")
	}
	return nil
}
