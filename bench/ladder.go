package main

import (
	"bufio"
	"bytes"
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	randtas "repro"
	"repro/internal/arena"
	"repro/internal/combiner"
	"repro/internal/concurrent"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/ratrace"
	"repro/internal/rng"
	"repro/internal/shm"
	"repro/internal/sim"
	"repro/internal/tas"
	"repro/internal/twoproc"
	"repro/internal/wire"
	"repro/tasclient"
)

// The ladder times each layer from outside, through the layer's own
// public functions, in layer order from coin flip to client round trip.
// Timed rungs run through testing.Benchmark; each is repeated and its
// median reported. Rungs run on one goroutine except the k=2 rungs,
// whose two goroutines meet at a barrier every round: a k=2 ns figure is
// one whole round (both elections, the barriers and the reset).

// rungOut maps one field of a rung's result to a metric: "ns/op",
// "allocs/op", or a unit the rung reported with b.ReportMetric, scaled.
type rungOut struct {
	metric string
	src    string
	scale  float64
}

type rung struct {
	name  string
	bench func(b *testing.B)
	out   []rungOut
}

// countRung measures exact or sampled counts once, outside
// testing.Benchmark.
type countRung struct {
	name  string
	count func() (map[string]float64, error)
}

// ladderConfig sets how hard the ladder measures. The CLI uses
// defaultLadder; the smoke test runs every rung once.
type ladderConfig struct {
	benchtime string // testing's -test.benchtime: a duration or "Nx"
	reps      int
}

var defaultLadder = ladderConfig{benchtime: "30ms", reps: 5}

// electorN is the process count of the elector and mutex rungs, matching
// mutex-inproc: on the 2-core reference host the electors face the solo
// doorway and k = 2.
const electorN = 2

var sink atomic.Int64 // keeps measured results alive

// runLadder measures every rung and returns the per-layer metrics.
func runLadder(seed int64, cfg ladderConfig) Record {
	rec := newRecord()
	testing.Init()
	if err := flag.Set("test.benchtime", cfg.benchtime); err != nil {
		fmt.Fprintf(os.Stderr, "ladder: %v\n", err)
		rec.Correct = false
		return rec
	}
	for _, r := range timedRungs(seed) {
		vals := map[string][]float64{}
		for i := 0; i < cfg.reps; i++ {
			res := testing.Benchmark(r.bench)
			if res.N == 0 {
				fmt.Fprintf(os.Stderr, "ladder: rung %s failed\n", r.name)
				rec.Correct = false
				break
			}
			for _, o := range r.out {
				var v float64
				switch o.src {
				case "ns/op":
					v = float64(res.T.Nanoseconds()) / float64(res.N)
				case "allocs/op":
					v = float64(res.MemAllocs) / float64(res.N)
				default:
					v = res.Extra[o.src]
				}
				vals[o.metric] = append(vals[o.metric], v*o.scale)
			}
		}
		for _, o := range r.out {
			if vs := vals[o.metric]; len(vs) > 0 {
				setLayer(&rec, o.metric, median(vs))
			}
		}
	}
	for _, r := range countRungs(seed) {
		m, err := r.count()
		if err != nil {
			fmt.Fprintf(os.Stderr, "ladder: rung %s: %v\n", r.name, err)
			rec.Correct = false
			continue
		}
		for k, v := range m {
			setLayer(&rec, k, v)
		}
	}
	setLayer(&rec, "loopback.single_rtt_overhead_ns",
		rec.value("tcp_single_rtt_ns")-rec.value("tasclient.pipe_single_rtt_ns"))
	delete(rec.Metrics, "tcp_single_rtt_ns")
	setLayer(&rec, "harness.parallel_eff",
		rec.value("harness.trials_per_s_w2")/(2*rec.value("harness.trials_per_s_w1")))
	return rec
}

// setLayer records a ladder metric with the unit its definition gives.
func setLayer(rec *Record, name string, v float64) {
	unit := "ns"
	if d, ok := lookupDef(name); ok {
		unit = d.unit
	}
	rec.set(name, v, unit)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ns(metric string) rungOut     { return rungOut{metric, "ns/op", 1} }
func allocs(metric string) rungOut { return rungOut{metric, "allocs/op", 1} }

func timedRungs(seed int64) []rung {
	rs := []rung{
		{"rng.coin", benchCoin(seed), []rungOut{ns("rng.coin_ns")}},
		{"clock.now", benchNow, []rungOut{ns("clock.now_ns")}},
		{"concurrent.read", benchRead(seed), []rungOut{ns("concurrent.read_ns")}},
		{"concurrent.write", benchWrite(seed, false), []rungOut{ns("concurrent.write_ns")}},
		{"concurrent.write_counted", benchWrite(seed, true), []rungOut{ns("concurrent.write_counted_ns")}},
		{"concurrent.reset", benchReset(seed), []rungOut{ns("concurrent.reset_ns")}},
	}
	for _, e := range ladderElectors {
		rs = append(rs,
			rung{e.name + ".solo", benchSolo(seed, e.f), []rungOut{ns(e.name + ".solo_ns"), {e.name + ".solo_steps", "steps/op", 1}}},
			rung{e.name + ".k2", benchK2(seed, e.f), []rungOut{ns(e.name + ".k2_ns"), {e.name + ".k2_steps", "steps/op", 1}}})
	}
	rs = append(rs,
		rung{"twoproc.k2", benchTwoProc(seed), []rungOut{ns("twoproc.k2_ns")}},
		rung{"arena.getput", benchGetPut, []rungOut{ns("arena.getput_ns")}},
		rung{"arena.mutex_solo", benchMutexSolo(seed), []rungOut{ns("arena.mutex_solo_ns"), allocs("arena.mutex_allocs_per_op")}},
		rung{"arena.mutex_k2", benchMutexK2(seed), []rungOut{
			{"arena.mutex_lost_frac", "lost/round", 1}, {"arena.miss_frac", "miss/get", 1}, {"arena.steal_frac", "steal/get", 1}}},
		rung{"arena.registry_lookup", benchRegistryLookup(seed), []rungOut{ns("arena.registry_lookup_ns")}},
		rung{"arena.election_cycle", benchElectionCycle(seed), []rungOut{ns("arena.election_cycle_ns")}},
		rung{"wire.append_request", benchAppendRequest, []rungOut{ns("wire.append_request_ns")}},
		rung{"wire.append_response", benchAppendResponse, []rungOut{ns("wire.append_response_ns")}},
		rung{"wire.read_request", benchReadRequest, []rungOut{ns("wire.read_request_ns")}},
		rung{"wire.read_response", benchReadResponse, []rungOut{ns("wire.read_response_ns")}},
		rung{"wire.pair", benchWirePair, []rungOut{allocs("wire.allocs_per_pair")}},
		rung{"server.pipe_batch16", benchServerBatch(seed), []rungOut{
			{"server.pipe_batch16_ns_per_op", "ns/op", 1.0 / (2 * pipelinePairs)},
			{"server.allocs_per_op", "allocs/op", 1.0 / (2 * pipelinePairs)}}},
		rung{"server.pipe_single", benchServerSingle(seed), []rungOut{{"server.pipe_single_ns_per_op", "ns/op", 0.5}}},
		rung{"server.pipe_k2", benchServerK2(seed), []rungOut{
			{"server.contended_frac", "contended/round", 1}, {"server.shed_frac", "shed/acquire", 1}}},
		rung{"tasclient.pipe_do16", benchClientDo16(seed), []rungOut{
			{"tasclient.pipe_do16_ns_per_op", "ns/op", 1.0 / (2 * pipelinePairs)},
			{"tasclient.allocs_per_op", "allocs/op", 1.0 / (2 * pipelinePairs)}}},
		rung{"tasclient.pipe_single", benchClientSingle(seed, false), []rungOut{{"tasclient.pipe_single_rtt_ns", "ns/op", 0.5}}},
		rung{"tasclient.tcp_single", benchClientSingle(seed, true), []rungOut{{"tcp_single_rtt_ns", "ns/op", 0.5}}},
		rung{"sim.step", benchSimStep, []rungOut{ns("sim.step_ns")}},
		rung{"sim.trial", benchSimTrial(seed), []rungOut{ns("sim.trial_ns"), allocs("sim.trial_allocs")}},
		rung{"harness.w1", benchHarness(seed, 1), []rungOut{{"harness.trials_per_s_w1", "trials/s", 1}}},
		rung{"harness.w2", benchHarness(seed, 2), []rungOut{{"harness.trials_per_s_w2", "trials/s", 1}}},
	)
	return rs
}

func countRungs(seed int64) []countRung {
	rs := []countRung{
		{"electors.k2_ccrmr", func() (map[string]float64, error) { return countK2RMRs(seed) }},
		{"electors.k8_steps", func() (map[string]float64, error) { return countK8Steps(seed) }},
		{"arena.mutex_rmrs", func() (map[string]float64, error) { return countMutexRMRs(seed) }},
		{"wire.bytes_per_pair", func() (map[string]float64, error) {
			return map[string]float64{"wire.bytes_per_pair": float64(len(pairFrames()))}, nil
		}},
		{"sim.meanmax_steps", func() (map[string]float64, error) { return countMeanMax(seed) }},
	}
	return rs
}

// --- rng, clock, concurrent -------------------------------------------------

func benchCoin(seed int64) func(*testing.B) {
	return func(b *testing.B) {
		g := rng.New(uint64(seed))
		heads := 0
		for i := 0; i < b.N; i++ {
			if g.Coin(0.5) {
				heads++
			}
		}
		sink.Add(int64(heads))
	}
}

func benchNow(b *testing.B) {
	var t time.Time
	for i := 0; i < b.N; i++ {
		t = time.Now()
	}
	sink.Add(int64(t.Nanosecond() & 1))
}

// registers allocates n registers on a sealed space.
func registers(n int, counted bool) (*concurrent.Space, []*concurrent.Register) {
	s := concurrent.NewSpaceConfig(concurrent.Config{CountRMRs: counted})
	rs := make([]*concurrent.Register, n)
	for i := range rs {
		rs[i] = s.NewRegister(0).(*concurrent.Register)
	}
	s.Seal()
	return s, rs
}

func benchRead(seed int64) func(*testing.B) {
	return func(b *testing.B) {
		_, rs := registers(64, false)
		h := concurrent.NewHandle(0, seed)
		var v int64
		for i := 0; i < b.N; i++ {
			v += h.ReadReg(rs[i&63])
		}
		sink.Add(v)
	}
}

func benchWrite(seed int64, counted bool) func(*testing.B) {
	return func(b *testing.B) {
		_, rs := registers(64, counted)
		h := concurrent.NewHandle(0, seed)
		for i := 0; i < b.N; i++ {
			h.WriteReg(rs[i&63], int64(i))
		}
	}
}

// benchReset is one recycling of a 512-register slot of which 8
// registers were written: the 8 writes plus the dirty-window Reset.
func benchReset(seed int64) func(*testing.B) {
	return func(b *testing.B) {
		s, rs := registers(512, false)
		h := concurrent.NewHandle(0, seed)
		for i := 0; i < b.N; i++ {
			for j := 0; j < 8; j++ {
				h.WriteReg(rs[(i*7+j*61)%len(rs)], 1)
			}
			s.Reset()
		}
	}
}

// --- electors ---------------------------------------------------------------

var ladderElectors = []struct {
	name string
	f    harness.Factory
}{
	{"combiner", combinedFactory},
	{"ratrace", ratraceFactory},
	{"core.logstar", logstarFactory},
	{"agtv", agtvFactory},
}

// benchSolo is one uncontended election plus the Reset that recycles it.
func benchSolo(seed int64, f harness.Factory) func(*testing.B) {
	return func(b *testing.B) {
		s := concurrent.NewSpace()
		le, _ := f(s, electorN)
		s.Seal()
		h := concurrent.NewHandle(0, seed)
		for i := 0; i < b.N; i++ {
			if !le.Elect(h) {
				b.Fatal("a solo election lost")
			}
			s.Reset()
		}
		b.ReportMetric(float64(h.Steps())/float64(b.N), "steps/op")
	}
}

// barrier is a reusable two-party rendezvous that spins, yielding the
// processor, so a round costs no channel operation.
type barrier struct {
	arrived atomic.Int32
	gen     atomic.Int32
}

func (br *barrier) wait() {
	g := br.gen.Load()
	if br.arrived.Add(1) == 2 {
		br.arrived.Store(0)
		br.gen.Add(1)
		return
	}
	for br.gen.Load() == g {
		runtime.Gosched()
	}
}

// k2Rounds runs rounds elections at contention 2 on one object: both
// goroutines elect, meet, and one resets the space for the next round.
// It reports an error unless every round had exactly one winner.
func k2Rounds(rounds int, s *concurrent.Space, elect func(h *concurrent.Handle, slot int) bool, h [2]*concurrent.Handle) error {
	var br barrier
	var won1 atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < rounds; i++ {
			br.wait()
			won1.Store(elect(h[1], 1))
			br.wait()
		}
	}()
	var err error
	for i := 0; i < rounds; i++ {
		br.wait()
		won0 := elect(h[0], 0)
		br.wait()
		if w1 := won1.Load(); won0 == w1 && err == nil {
			err = fmt.Errorf("round %d: winners %v/%v, want exactly one", i, won0, w1)
		}
		s.Reset()
	}
	<-done
	return err
}

func handles(seed int64) [2]*concurrent.Handle {
	return [2]*concurrent.Handle{concurrent.NewHandle(0, seed), concurrent.NewHandle(1, seed)}
}

func benchK2(seed int64, f harness.Factory) func(*testing.B) {
	return func(b *testing.B) {
		s := concurrent.NewSpace()
		le, _ := f(s, electorN)
		s.Seal()
		h := handles(seed)
		b.ResetTimer()
		if err := k2Rounds(b.N, s, func(h *concurrent.Handle, _ int) bool { return le.Elect(h) }, h); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(h[0].Steps()+h[1].Steps())/float64(2*b.N), "steps/op")
	}
}

func benchTwoProc(seed int64) func(*testing.B) {
	return func(b *testing.B) {
		s := concurrent.NewSpace()
		le := twoproc.New(s)
		s.Seal()
		b.ResetTimer()
		if err := k2Rounds(b.N, s, func(h *concurrent.Handle, slot int) bool { return le.Elect(h, slot) }, handles(seed)); err != nil {
			b.Fatal(err)
		}
	}
}

// countK2RMRs measures each elector's cache-coherent RMRs per process
// per election at k = 2, on a space with RMR accounting.
func countK2RMRs(seed int64) (map[string]float64, error) {
	const rounds = 2000
	out := map[string]float64{}
	for _, e := range ladderElectors {
		s := concurrent.NewSpaceConfig(concurrent.Config{CountRMRs: true})
		le, _ := e.f(s, electorN)
		s.Seal()
		h := handles(seed)
		if err := k2Rounds(rounds, s, func(h *concurrent.Handle, _ int) bool { return le.Elect(h) }, h); err != nil {
			return nil, fmt.Errorf("%s: %v", e.name, err)
		}
		out[e.name+".k2_ccrmr"] = float64(h[0].CCRMRs()+h[1].CCRMRs()) / (2 * rounds)
	}
	return out, nil
}

// countK8Steps is each elector's mean maximum steps at k = n = 8 on the
// simulator under the random oblivious schedule: exact for a seed.
func countK8Steps(seed int64) (map[string]float64, error) {
	out := map[string]float64{}
	for _, e := range ladderElectors {
		st, err := harness.Run(harness.Spec{Algorithm: e.name, Factory: e.f, N: 8, K: 8, Trials: 200,
			BaseSeed: derive(seed, "k8"), Adversary: randomOblivious, Workers: 1})
		if err != nil {
			return nil, err
		}
		out[e.name+".k8_steps"] = st.MeanMax
	}
	return out, nil
}

// --- arena ------------------------------------------------------------------

// combinedSlot is the arena slot factory of randtas's Combined algorithm.
func combinedSlot(s *concurrent.Space, n int) tas.LeaderElector {
	return combiner.New(s, ratrace.NewSpaceEfficient(s, n), core.NewLogStar(s, n))
}

func benchGetPut(b *testing.B) {
	a, err := arena.New(arena.Config{N: electorN, Factory: combinedSlot})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		a.Put(a.Get(0))
	}
}

func mutexOptions(seed int64) randtas.ArenaOptions {
	return randtas.ArenaOptions{Options: randtas.Options{N: electorN, Algorithm: randtas.Combined, Seed: derive(seed, "mutex")}}
}

func benchMutexSolo(seed int64) func(*testing.B) {
	return func(b *testing.B) {
		m, err := randtas.NewMutex(mutexOptions(seed))
		if err != nil {
			b.Fatal(err)
		}
		p := m.Proc(0)
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tok, err := p.Lock(ctx)
			if err != nil {
				b.Fatal(err)
			}
			if err := p.Unlock(tok); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchMutexK2 drives one mutex from two goroutines, b.N ops in all, and
// reports the share of rounds lost to contention and how the arena served
// the rounds' slots.
func benchMutexK2(seed int64) func(*testing.B) {
	return func(b *testing.B) {
		a, err := randtas.NewArena(mutexOptions(seed))
		if err != nil {
			b.Fatal(err)
		}
		m := a.NewMutex()
		before := a.Stats()
		var wg sync.WaitGroup
		var failed atomic.Int64
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(p *randtas.MutexProc, n int) {
				defer wg.Done()
				for i := 0; i < n; i++ {
					tok, err := p.Lock(context.Background())
					if err == nil {
						err = p.Unlock(tok)
					}
					if err != nil {
						failed.Add(1)
						return
					}
				}
			}(m.Proc(w), (b.N+w)/2)
		}
		wg.Wait()
		if failed.Load() != 0 {
			b.Fatal("a Lock or Unlock failed")
		}
		st, after := m.Stats(), a.Stats()
		gets := float64(after.Hits + after.Steals + after.Misses - before.Hits - before.Steals - before.Misses)
		b.ReportMetric(float64(st.Contended)/float64(st.Rounds), "lost/round")
		b.ReportMetric(float64(after.Misses-before.Misses)/gets, "miss/get")
		b.ReportMetric(float64(after.Steals-before.Steals)/gets, "steal/get")
	}
}

// countMutexRMRs drives a k = 2 mutex on an RMR-accounting arena and
// reports steps and RMRs per Lock+Unlock.
func countMutexRMRs(seed int64) (map[string]float64, error) {
	const perProc = 5000
	a, err := arena.New(arena.Config{N: electorN, Factory: combinedSlot, CountRMRs: true})
	if err != nil {
		return nil, err
	}
	m := arena.NewMutex(a)
	procs := []*arena.MutexProc{m.Proc(0, concurrent.NewHandle(0, seed)), m.Proc(1, concurrent.NewHandle(1, seed))}
	errs := make([]error, len(procs))
	var wg sync.WaitGroup
	for i, p := range procs {
		wg.Add(1)
		go func(i int, p *arena.MutexProc) {
			defer wg.Done()
			for j := 0; j < perProc; j++ {
				tok, err := p.Lock(context.Background())
				if err == nil {
					err = p.Unlock(tok)
				}
				if err != nil {
					errs[i] = err
					return
				}
			}
		}(i, p)
	}
	wg.Wait()
	var steps, cc, dsm int
	for i, p := range procs {
		if errs[i] != nil {
			return nil, errs[i]
		}
		steps, cc, dsm = steps+p.Steps(), cc+p.CCRMRs(), dsm+p.DSMRMRs()
	}
	ops := float64(len(procs) * perProc)
	return map[string]float64{
		"arena.mutex_steps_per_op":  float64(steps) / ops,
		"arena.mutex_ccrmr_per_op":  float64(cc) / ops,
		"arena.mutex_dsmrmr_per_op": float64(dsm) / ops,
	}, nil
}

func newRegistry(seed int64) (*randtas.Registry, error) {
	return randtas.NewRegistry(randtas.RegistryOptions{ArenaOptions: mutexOptions(seed)})
}

func benchRegistryLookup(seed int64) func(*testing.B) {
	return func(b *testing.B) {
		r, err := newRegistry(seed)
		if err != nil {
			b.Fatal(err)
		}
		r.Mutex("hot")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if r.Mutex("hot") == nil {
				b.Fatal("lookup returned no mutex")
			}
		}
	}
}

// benchElectionCycle is one epoch of a named election: a solo Elect and
// the leader's Reset.
func benchElectionCycle(seed int64) func(*testing.B) {
	return func(b *testing.B) {
		r, err := newRegistry(seed)
		if err != nil {
			b.Fatal(err)
		}
		e := r.Election("leader")
		p := e.Proc(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			leader, epoch := p.Elect()
			if !leader {
				b.Fatal("a solo election lost")
			}
			if _, err := e.Reset(epoch); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- wire -------------------------------------------------------------------

// The wire rungs code the frames of svc-pipelined: an ACQUIRE with a
// lease of a 16-byte name, a RELEASE carrying its token, and their
// answers.
var (
	wireName   = "c0-0123456789ab"
	acquireReq = wire.Request{Op: wire.OpAcquire, ID: 7, Name: wireName, TTLMillis: uint32(leaseTTL / time.Millisecond)}
	releaseReq = wire.Request{Op: wire.OpRelease, ID: 8, Name: wireName, Token: 41}
	grantResp  = wire.Response{Status: wire.StatusOK, ID: 7, Payload: wire.TokenPayload(41)}
	okResp     = wire.Response{Status: wire.StatusOK, ID: 8}
)

// pairFrames is one ACQUIRE/RELEASE pair as it crosses the wire.
func pairFrames() []byte {
	buf, _ := wire.AppendRequest(nil, acquireReq)
	buf, _ = wire.AppendRequest(buf, releaseReq)
	buf = wire.AppendResponse(buf, grantResp)
	return wire.AppendResponse(buf, okResp)
}

func benchAppendRequest(b *testing.B) {
	buf := make([]byte, 0, 64)
	for i := 0; i < b.N; i++ {
		buf, _ = wire.AppendRequest(buf[:0], acquireReq)
	}
	sink.Add(int64(len(buf)))
}

func benchAppendResponse(b *testing.B) {
	buf := make([]byte, 0, 64)
	for i := 0; i < b.N; i++ {
		buf = wire.AppendResponse(buf[:0], grantResp)
	}
	sink.Add(int64(len(buf)))
}

func benchReadRequest(b *testing.B) {
	frame, _ := wire.AppendRequest(nil, acquireReq)
	r := bytes.NewReader(frame)
	for i := 0; i < b.N; i++ {
		r.Reset(frame)
		if _, err := wire.ReadRequest(r, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func benchReadResponse(b *testing.B) {
	frame := wire.AppendResponse(nil, grantResp)
	r := bytes.NewReader(frame)
	for i := 0; i < b.N; i++ {
		r.Reset(frame)
		if _, err := wire.ReadResponse(r, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// benchWirePair codes a whole pair both ways; its allocations per op are
// the codec's allocations per ACQUIRE/RELEASE pair.
func benchWirePair(b *testing.B) {
	buf := make([]byte, 0, 128)
	r := bytes.NewReader(nil)
	for i := 0; i < b.N; i++ {
		buf, _ = wire.AppendRequest(buf[:0], acquireReq)
		buf, _ = wire.AppendRequest(buf, releaseReq)
		r.Reset(buf)
		if _, err := wire.ReadRequest(r, 0); err != nil {
			b.Fatal(err)
		}
		if _, err := wire.ReadRequest(r, 0); err != nil {
			b.Fatal(err)
		}
		buf = wire.AppendResponse(buf[:0], grantResp)
		buf = wire.AppendResponse(buf, okResp)
		r.Reset(buf)
		if _, err := wire.ReadResponse(r, 0); err != nil {
			b.Fatal(err)
		}
		if _, err := wire.ReadResponse(r, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// --- server (raw frames over net.Pipe) --------------------------------------

// rawConn speaks protocol v3 frames directly to a server over a pipe.
type rawConn struct {
	nc net.Conn
	br *bufio.Reader
}

func dialRaw(l *pipeListener) (*rawConn, error) {
	nc, err := l.dial()
	if err != nil {
		return nil, err
	}
	// One deadline for the connection's whole life turns a protocol bug
	// into a failed rung instead of a hung ladder, at no per-op cost.
	nc.SetDeadline(time.Now().Add(time.Minute))
	c := &rawConn{nc: nc, br: bufio.NewReader(nc)}
	hello, _ := wire.AppendRequest(nil, wire.Request{Op: wire.OpHello, Version: wire.Version})
	if err := c.roundTrip(hello, 1); err != nil {
		nc.Close()
		return nil, err
	}
	return c, nil
}

// roundTrip writes frames and reads n responses, all of which must be OK.
func (c *rawConn) roundTrip(frames []byte, n int) error {
	if _, err := c.nc.Write(frames); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		resp, err := wire.ReadResponse(c.br, 0)
		if err != nil {
			return err
		}
		if resp.Status != wire.StatusOK {
			return fmt.Errorf("%s: %s", wire.StatusName(resp.Status), resp.Payload)
		}
	}
	return nil
}

// pipeServer starts a server behind a pipe listener for one rung.
func pipeServer(b *testing.B, seed int64) (*tasd, *pipeListener) {
	l := newPipeListener()
	t, err := startServer(derive(seed, "server"), l)
	if err != nil {
		b.Fatal(err)
	}
	return t, l
}

// acquireFrame and releaseFrame encode a leased ACQUIRE of name and its
// server-tracked RELEASE.
func acquireFrame(buf []byte, name string) []byte {
	buf, _ = wire.AppendRequest(buf, wire.Request{Op: wire.OpAcquire, Name: name, TTLMillis: uint32(leaseTTL / time.Millisecond)})
	return buf
}

func releaseFrame(buf []byte, name string) []byte {
	buf, _ = wire.AppendRequest(buf, wire.Request{Op: wire.OpRelease, Name: name})
	return buf
}

func benchServerBatch(seed int64) func(*testing.B) {
	return func(b *testing.B) {
		t, l := pipeServer(b, seed)
		defer t.stop()
		c, err := dialRaw(l)
		if err != nil {
			b.Fatal(err)
		}
		defer c.nc.Close()
		g := rng.New(uint64(derive(seed, "names")))
		var frames []byte
		for _, name := range newPairBatch(&g, 0).names {
			frames = releaseFrame(acquireFrame(frames, name), name)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := c.roundTrip(frames, 2*pipelinePairs); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
	}
}

// benchServerSingle is one ACQUIRE round trip then one RELEASE round
// trip per op.
func benchServerSingle(seed int64) func(*testing.B) {
	return func(b *testing.B) {
		t, l := pipeServer(b, seed)
		defer t.stop()
		c, err := dialRaw(l)
		if err != nil {
			b.Fatal(err)
		}
		defer c.nc.Close()
		acq, rel := acquireFrame(nil, "hot"), releaseFrame(nil, "hot")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := c.roundTrip(acq, 1); err != nil {
				b.Fatal(err)
			}
			if err := c.roundTrip(rel, 1); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
	}
}

// benchServerK2 runs two raw connections' single ACQUIRE/RELEASE loops
// on one name and reports the server's contention and shed shares.
func benchServerK2(seed int64) func(*testing.B) {
	return func(b *testing.B) {
		t, l := pipeServer(b, seed)
		defer t.stop()
		acq, rel := acquireFrame(nil, "hot"), releaseFrame(nil, "hot")
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for w := 0; w < 2; w++ {
			c, err := dialRaw(l)
			if err != nil {
				b.Fatal(err)
			}
			defer c.nc.Close()
			wg.Add(1)
			go func(w, n int) {
				defer wg.Done()
				for i := 0; i < n && errs[w] == nil; i++ {
					if errs[w] = c.roundTrip(acq, 1); errs[w] == nil {
						errs[w] = c.roundTrip(rel, 1)
					}
				}
			}(w, (b.N+w)/2)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
		var rounds, contended uint64
		for _, st := range t.srv.Registry().Stats() {
			rounds += st.Rounds
			contended += st.Contended
		}
		b.ReportMetric(float64(contended)/float64(rounds), "contended/round")
		b.ReportMetric(float64(t.srv.Overload().Shed)/float64(b.N), "shed/acquire")
	}
}

// --- tasclient ----------------------------------------------------------------

func benchClientDo16(seed int64) func(*testing.B) {
	return func(b *testing.B) {
		t, l := pipeServer(b, seed)
		defer t.stop()
		nc, err := l.dial()
		if err != nil {
			b.Fatal(err)
		}
		c, err := tasclient.NewClientConn(context.Background(), nc)
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		g := rng.New(uint64(derive(seed, "names")))
		batch := newPairBatch(&g, 0)
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := batch.run(ctx, c); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
	}
}

// benchClientSingle is one Acquire and one Release through tasclient,
// over a pipe or over loopback TCP.
func benchClientSingle(seed int64, tcp bool) func(*testing.B) {
	return func(b *testing.B) {
		var t *tasd
		var c *tasclient.Client
		var err error
		if tcp {
			if t, err = startServer(derive(seed, "server"), nil); err != nil {
				b.Fatal(err)
			}
			var cs []*tasclient.Client
			if cs, err = t.dialAll(1); err == nil {
				c = cs[0]
			}
		} else {
			var l *pipeListener
			t, l = pipeServer(b, seed)
			var nc net.Conn
			if nc, err = l.dial(); err == nil {
				c, err = tasclient.NewClientConn(context.Background(), nc)
			}
		}
		defer t.stop()
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tok, err := c.Acquire(ctx, "hot", leaseTTL)
			if err != nil {
				b.Fatal(err)
			}
			if err := c.Release(ctx, "hot", tok); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
	}
}

// --- sim, harness -----------------------------------------------------------

// benchSimStep is the simulator's per-step handshake: one process writes
// forever and the scheduler grants it one step per op.
func benchSimStep(b *testing.B) {
	sys := sim.NewSystem(sim.Config{N: 1, Seed: 1})
	r := sys.NewRegister(0)
	steps := b.N
	sys.Start(func(h shm.Handle) {
		for i := 0; i < steps; i++ {
			h.Write(r, 1)
		}
	})
	defer sys.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Step(0)
	}
}

// benchSimTrial is one pooled trial of sim-montecarlo's logstar cell: a
// Reset-recycled System, as harness.Run's workers run it.
func benchSimTrial(seed int64) func(*testing.B) {
	return func(b *testing.B) {
		c := simCells[0]
		sys := sim.NewSystem(sim.Config{N: c.k, Seed: seed, Reuse: true})
		defer sys.Release()
		le, _ := c.factory(sys, c.n)
		body := func(h shm.Handle) { le.Elect(h) }
		var res sim.Result
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s := harness.TrialSeed(seed, i)
			sys.Reset(s)
			sys.RunInto(sim.NewRandomOblivious(s^harness.AdversarySeedMix), body, &res)
		}
	}
}

// benchHarness runs one sim-montecarlo rotation per op through
// harness.Run with the given worker count and reports trials per second.
func benchHarness(seed int64, workers int) func(*testing.B) {
	return func(b *testing.B) {
		trials := 0
		start := time.Now()
		for i := 0; i < b.N; i++ {
			for j, c := range simCells {
				if _, err := runCell(c, derive(seed, "harness")+int64(i*len(simCells)+j), workers, nil); err != nil {
					b.Fatal(err)
				}
				trials += c.trials
			}
		}
		b.ReportMetric(float64(trials)/time.Since(start).Seconds(), "trials/s")
	}
}

// countMeanMax is each sim-montecarlo cell's mean maximum steps over one
// rotation at a seed-derived base: exact for a seed.
func countMeanMax(seed int64) (map[string]float64, error) {
	out := map[string]float64{}
	keys := map[string]string{"logstar": "sim.logstar_meanmax_steps", "combined": "sim.combined_meanmax_steps", "ratrace-se": "sim.ratrace_meanmax_steps"}
	for _, c := range simCells {
		r, err := runCell(c, derive(seed, "meanmax"), 1, nil)
		if err != nil {
			return nil, err
		}
		out[keys[c.name]] = r.Stats.MeanMax
	}
	return out, nil
}
