package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	randtas "repro"
	"repro/internal/rng"
)

// workload is one entry of the workload table: a traffic mix with the
// reason it is in the ledger. Client counts, pipeline depth and the
// warm-up are constants of the table; only the seed and the measured
// duration come from the command line.
type workload struct {
	name string
	why  string
	// setup builds the system under test and returns its load. Its time,
	// from process start, is the workload's setup_s.
	setup func(o *runOpts) (*load, error)
	// spanUnit is the unit traced self times are reported in.
	spanUnit string
	// residual relates the ladder to this workload: the blocking-path
	// rung cost of one op and this run's end-to-end time per op, both in
	// nanoseconds.
	residual func(run, ladder Record) (path, e2e float64)
}

var workloads = []*workload{
	{
		name:     "mutex-inproc",
		why:      "No wire and no server: coin, registers, doorway, electors (the contended rounds run the combiner) and arena recycling do all the work.",
		setup:    setupMutexInproc,
		spanUnit: "ns",
		residual: func(run, ladder Record) (float64, float64) {
			return ladder.value("arena.mutex_solo_ns"), 1e9 / run.value("ops_per_s")
		},
	},
	{
		name:     "svc-pipelined",
		why:      "Wire codec, server batching and the client dominate; the elector only runs the solo doorway, so an elector change should not move it.",
		setup:    setupSvcPipelined,
		spanUnit: "us",
		residual: func(run, ladder Record) (float64, float64) {
			return 2*pipelinePairs*ladder.value("tasclient.pipe_do16_ns_per_op") + ladder.value("loopback.single_rtt_overhead_ns"),
				1000 * run.value("latency_p50_us")
		},
	},
	{
		name:     "svc-single",
		why:      "Same layers, one frame per syscall; every cycle a lock probe loses to the other connection's hold and an election is won, lost and reset: shows a batching gain that costs single-op latency.",
		setup:    setupSvcSingle,
		spanUnit: "us",
		residual: func(run, ladder Record) (float64, float64) {
			rtt := ladder.value("tasclient.pipe_single_rtt_ns") + ladder.value("loopback.single_rtt_overhead_ns")
			return cycleRequests * rtt, 1000 * run.value("latency_p50_us")
		},
	},
	{
		name:     "sim-montecarlo",
		why:      "The paper-reproduction path: sim engine, harness and portable electors, bypassing concurrent, arena, wire and server.",
		setup:    setupSimMonteCarlo,
		spanUnit: "us",
		residual: func(run, ladder Record) (float64, float64) {
			return 1e9 / ladder.value("harness.trials_per_s_w2"), 1e9 / run.value("ops_per_s")
		},
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// warmup precedes every measured window: caches fill, pools warm and the
// sim workload checks its golden file.
const warmup = time.Second

// runOpts are the inputs of one run of one workload.
type runOpts struct {
	seed      int64
	warmup    time.Duration
	measure   time.Duration
	traced    bool
	setupOnly bool
	spansDir  string // traced runs write their spans here when non-empty
	ready     func() // called once set-up is complete
	// Fault injection, reachable only in-process (tests): a double grant
	// inside mutex-inproc's critical section, and a replacement golden
	// file for sim-montecarlo.
	doubleGrant bool
	golden      []byte
}

// derive maps the run seed and a label to an independent nonzero seed:
// every input a workload generates comes from -seed through here.
func derive(seed int64, label string) int64 {
	h := uint64(seed)
	for i := 0; i < len(label); i++ {
		h = h*0x100000001b3 ^ uint64(label[i])
	}
	g := rng.New(h)
	return int64(g.Next()>>1) | 1
}

// windowLen is the length of one measured window. Every end-to-end
// metric but setup_s is the median of its per-window values: two load
// loops sharing two CPUs fall into interleaving patterns that last a few
// seconds and shift a pooled percentile by tens of percent, while the
// typical window's figure stays put.
const windowLen = time.Second

// window tallies one load goroutine's ops in one measured window. The
// counters are atomic because sim-montecarlo counts trials from the
// harness's worker goroutines as they finish.
type window struct {
	ops, failed atomic.Int64
	lat         *reservoir // latency samples, nanoseconds
}

// opCtx is what one op of a load sees.
type opCtx struct {
	w     int
	win   *window // the window this op started in; nil in warm-up
	timed bool    // measure this op's latency into win.lat
	tr    *tracer
	cur   *atomic.Int32 // the measured window now running; -1 in warm-up
	wins  []window      // this load goroutine's windows
}

// current returns the window now running, or nil outside the measured
// run.
func (c *opCtx) current() *window {
	i := int(c.cur.Load())
	if i < 0 || i >= len(c.wins) {
		return nil
	}
	return &c.wins[i]
}

func (c *opCtx) begin(name, parent int) int {
	if c.tr == nil {
		return -1
	}
	return c.tr.begin(name, parent)
}

func (c *opCtx) end(i int) {
	if c.tr != nil {
		c.tr.end(i)
	}
}

// load is a workload's closed-loop traffic: workers goroutines each run
// step back to back, waiting for every reply.
type load struct {
	workers int
	// sampleEvery is the latency sampling stride in ops; one clock read
	// costs tens of nanoseconds, which matters for sub-microsecond ops.
	sampleEvery int
	spanNames   []string
	// sharedTracer serializes a worker's tracer across the goroutines its
	// step fans out to (the harness's trial workers).
	sharedTracer bool
	// step runs one op and reports how many ops it completed and how many
	// of them failed.
	step func(c *opCtx) (ops, failed int64)
	// selfCounting steps tally their ops into c.current() themselves, as
	// each finishes, instead of reporting them on return.
	selfCounting bool
	// finish runs after the load stopped: it checks correctness and
	// tears the system down, returning one string per failed check.
	finish func() []string
}

// runWorkload sets w up, drives its load through warm-up and the
// measured windows, checks it and reports the child-level record:
// everything but setup_s, which only a parent process can time.
func runWorkload(w *workload, o runOpts) Record {
	rec := newRecord()
	fail := func(format string, args ...any) {
		rec.Correct = false
		fmt.Fprintf(os.Stderr, "%s: check failed: %s\n", w.name, fmt.Sprintf(format, args...))
	}
	l, err := w.setup(&o)
	if err != nil {
		fail("set-up: %v", err)
		return rec
	}
	if o.ready != nil {
		o.ready()
	}
	if o.setupOnly {
		l.finish()
		return rec
	}

	nwin := max(1, int((o.measure+windowLen-1)/windowLen))
	epoch := time.Now()
	var cur atomic.Int32
	cur.Store(-1)
	ctxs := make([]*opCtx, l.workers)
	var wg sync.WaitGroup
	for i := range ctxs {
		c := &opCtx{w: i, cur: &cur, wins: make([]window, nwin)}
		for j := range c.wins {
			c.wins[j].lat = newReservoir(1<<14, uint64(derive(o.seed, "lat"))+uint64(i*nwin+j))
		}
		if o.traced {
			c.tr = newTracer(l.spanNames, epoch, uint64(derive(o.seed, "trace"))+uint64(i), l.sharedTracer)
		}
		ctxs[i] = c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; int(cur.Load()) < nwin; n++ {
				c.win = c.current()
				c.timed = c.win != nil && l.sampleEvery > 0 && n%l.sampleEvery == 0
				ops, failed := l.step(c)
				if c.win != nil && !l.selfCounting {
					c.win.ops.Add(ops)
					c.win.failed.Add(failed)
				}
			}
		}()
	}
	time.Sleep(o.warmup)
	bounds := make([]time.Time, nwin+1)
	cpus := make([]time.Duration, nwin+1)
	start := time.Now()
	for i := 0; i <= nwin; i++ {
		if i > 0 {
			time.Sleep(time.Until(start.Add(min(time.Duration(i)*windowLen, o.measure))))
		}
		cpus[i], bounds[i] = cpuTime(), time.Now()
		cur.Store(int32(i))
	}
	wg.Wait()

	var rates, cpuPerOp, p50s, p99s []float64
	var samples int64
	for j := 0; j < nwin; j++ {
		var ops, failed int64
		var rs []*reservoir
		for _, c := range ctxs {
			ops += c.wins[j].ops.Load()
			failed += c.wins[j].failed.Load()
			rs = append(rs, c.wins[j].lat)
		}
		rec.Attempted += ops
		rec.Failed += failed
		rates = append(rates, float64(ops)/bounds[j+1].Sub(bounds[j]).Seconds())
		q, n := quantiles(rs, 0.50, 0.99)
		samples += n
		if ops == 0 || n < 1000 {
			fail("window %d: %d ops, %d latency samples; a p99 needs at least 1000", j, ops, n)
			continue
		}
		cpuPerOp = append(cpuPerOp, (cpus[j+1]-cpus[j]).Seconds()*1e6/float64(ops))
		p50s = append(p50s, q[0]/1000)
		p99s = append(p99s, q[1]/1000)
	}
	for _, msg := range l.finish() {
		fail("%s", msg)
	}
	if len(p50s) == 0 {
		fail("no measured window has enough ops to report")
		return rec
	}
	if rec.Failed > 0 {
		fail("%d of %d ops failed", rec.Failed, rec.Attempted)
	}
	rec.set("ops_per_s", median(rates), "1/s")
	rec.set("latency_p50_us", median(p50s), "us")
	rec.set("latency_p99_us", median(p99s), "us")
	rec.set("ok_frac", float64(rec.Attempted-rec.Failed)/float64(rec.Attempted), "frac")
	rec.set("cpu_us_per_op", median(cpuPerOp), "us")
	rec.set("max_rss_mb", maxRSSMB(), "MB")
	if o.traced {
		var tracers []*tracer
		dropped := 0
		for _, c := range ctxs {
			tracers = append(tracers, c.tr)
			dropped += c.tr.dropped
		}
		selfTimes(tracers, w.spanUnit, &rec)
		if dropped > 0 {
			fmt.Fprintf(os.Stderr, "%s: %d traced ops overflowed the span ring\n", w.name, dropped)
		}
		if o.spansDir != "" {
			path := filepath.Join(o.spansDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, o.seed))
			if err := dumpSpans(path, tracers); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", w.name, err)
			}
		}
	}
	fmt.Fprintf(os.Stderr, "%s: %d ops in %.2fs (%d windows) on %d load goroutines (GOMAXPROCS %d), %d latency samples\n",
		w.name, rec.Attempted, bounds[nwin].Sub(bounds[0]).Seconds(), nwin, l.workers, runtime.GOMAXPROCS(0), samples)
	return rec
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set size (Linux reports KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// --- mutex-inproc -----------------------------------------------------------

func setupMutexInproc(o *runOpts) (*load, error) {
	m, err := randtas.NewMutex(randtas.ArenaOptions{Options: randtas.Options{N: 2, Algorithm: randtas.Combined, Seed: derive(o.seed, "mutex")}})
	if err != nil {
		return nil, err
	}
	procs := []*randtas.MutexProc{m.Proc(0), m.Proc(1)}
	var (
		owner      atomic.Int32
		violations atomic.Int64
		counter    int64 // guarded by m
		done       [2]int64
		lastTok    [2]randtas.Token
		badTokens  [2]int64
	)
	ctx := context.Background()
	const (
		spanOp = iota
		spanLock
		spanUnlock
	)
	step := func(c *opCtx) (int64, int64) {
		p := procs[c.w]
		root := c.begin(spanOp, -1)
		defer c.end(root)
		var t0 time.Time
		if c.timed {
			t0 = time.Now()
		}
		s := c.begin(spanLock, root)
		tok, err := p.Lock(ctx)
		c.end(s)
		if err != nil {
			return 1, 1
		}
		if tok <= lastTok[c.w] {
			badTokens[c.w]++
		}
		lastTok[c.w] = tok
		me := int32(c.w + 1)
		if !owner.CompareAndSwap(0, me) {
			violations.Add(1)
		}
		counter++
		if o.doubleGrant && c.w == 0 && done[0] == 100 && !owner.CompareAndSwap(0, me) {
			violations.Add(1) // a second grant of a held lock
		}
		owner.CompareAndSwap(me, 0)
		s = c.begin(spanUnlock, root)
		err = p.Unlock(tok)
		c.end(s)
		if c.timed {
			c.win.lat.add(time.Since(t0).Nanoseconds())
		}
		done[c.w]++
		if err != nil {
			return 1, 1
		}
		return 1, 0
	}
	finish := func() []string {
		var errs []string
		total := done[0] + done[1]
		if counter != total {
			errs = append(errs, fmt.Sprintf("guarded counter %d, want %d ops", counter, total))
		}
		if v := violations.Load(); v != 0 {
			errs = append(errs, fmt.Sprintf("%d mutual-exclusion violations", v))
		}
		if b := badTokens[0] + badTokens[1]; b != 0 {
			errs = append(errs, fmt.Sprintf("%d fencing tokens not strictly increasing per proc", b))
		}
		if r := m.Stats().Rounds; r != uint64(total) {
			errs = append(errs, fmt.Sprintf("mutex counted %d rounds, want %d", r, total))
		}
		return errs
	}
	return &load{workers: 2, sampleEvery: 16, spanNames: []string{"mutex.op", "mutex.lock", "mutex.unlock"}, step: step, finish: finish}, nil
}
