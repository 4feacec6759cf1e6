// Command tasbench regenerates every experiment table of the reproduction
// (E1–E11, one per claim) and, in net mode, load-tests the tasd lock
// service.
//
// Usage:
//
//	tasbench [-mode=experiments] [-experiment all|E1|E2|...] [-trials N] [-seed S] [-quick]
//	tasbench -mode=net [-scenario pairs|churn|storm|disconnect|flood]
//	         [-clients C] [-pipeline D] [-locks L] [-duration D] [-wait D]
//	         [-addr host:port] [-netout BENCH_PR8.json] [-netfloor OPS]
//	tasbench -mode=dst [-dstseeds N] [-seed S] [-dstscenario all|mixed|...]
//	         [-dstops N] [-dstv]
//	tasbench -mode=complexity [-trials N] [-seed S] [-quick]
//	         [-cxout BENCH_PR9.json] [-benchpre name=ns,...] [-benchpost name=ns,...]
//
// Each experiment prints a fixed-width table whose *shape* (who wins, by
// what growth rate, where crossovers fall) reproduces the corresponding
// theorem of Giakkoupis & Woelfel (PODC 2012). Net mode (see net.go)
// load-tests the tasd lock daemon over loopback TCP. In-process mutex
// and simulator throughput are measured by the benchmark under bench/
// (bash bench/run.sh).
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/aa"
	"repro/internal/agtv"
	"repro/internal/combiner"
	"repro/internal/core"
	"repro/internal/groupelect"
	"repro/internal/harness"
	"repro/internal/lowerbound"
	"repro/internal/markov"
	"repro/internal/ratrace"
	"repro/internal/rng"
	"repro/internal/shm"
	"repro/internal/sim"
	"repro/internal/twoproc"
)

func main() {
	var (
		mode       = flag.String("mode", "experiments", "'experiments' (simulator tables), 'net' (tasd loopback load test), 'hold' (one-lock lease drill), 'dst' (deterministic whole-service simulation over a seed corpus) or 'complexity' (fitted step/RMR classes gate)")
		experiment = flag.String("experiment", "all", "experiment id (E1..E11) or 'all'")
		trials     = flag.Int("trials", 100, "Monte-Carlo trials per table cell")
		seed       = flag.Int64("seed", 1, "base random seed")
		quick      = flag.Bool("quick", false, "smaller sweeps for a fast smoke run")

		duration = flag.Duration("duration", 2*time.Second, "net: load duration")
		algo     = flag.String("algo", "combined", "net: in-process server's TAS algorithm: combined, logstar, sifting, adaptive-sifting, ratrace, ratrace-original, agtv")

		clients  = flag.Int("clients", 8, "net: concurrent client connections")
		pipeline = flag.Int("pipeline", 16, "net: ACQUIRE/RELEASE pairs per pipelined batch")
		nlocks   = flag.Int("locks", 4, "net: distinct named locks")
		scenario = flag.String("scenario", "pairs", "net: 'pairs' (leased acquire/release), 'churn' (abandoned holds recovered by lease expiry), 'storm' (stale-token fencing storm), 'disconnect' (clients hang up mid-ACQUIRE; asserts abort + slot reclaim) or 'flood' (open-loop overload against a small admission envelope; asserts shedding + goodput + bounds)")
		ttl      = flag.Duration("ttl", 0, "net/hold: lease TTL attached to acquires (0 = no lease)")
		abandon  = flag.Int("abandon", 8, "net churn: forget the release every Nth cycle")
		netWait  = flag.Duration("wait", 0, "net flood: per-ACQUIRE server-side wait budget (0 = 5ms default)")
		netAddr  = flag.String("addr", "", "net/hold: target a running tasd (net: empty = in-process loopback server)")
		netOut   = flag.String("netout", "BENCH_PR8.json", "net: output JSON path")
		netFloor = flag.Float64("netfloor", 0, "net: fail below this many ops/sec (0 = no gate)")

		holdLock = flag.String("holdlock", "smoke/hold", "hold: lock name to acquire")
		holdFor  = flag.Duration("holdfor", 0, "hold: how long to sit on the lock before releasing")

		cxOut  = flag.String("cxout", "BENCH_PR9.json", "complexity: output JSON path ('' = no file)")
		cxPre  = flag.String("benchpre", "", "complexity: committed counters-off baseline ns/op, e.g. mutex/combined=288.9,reset/dirty-window=60")
		cxPost = flag.String("benchpost", "", "complexity: post-change counters-off ns/op, same shape as -benchpre")

		dstSeeds    = flag.Int("dstseeds", 64, "dst: corpus size (seeds base, base+1, ...)")
		dstScenario = flag.String("dstscenario", "all", "dst: scenario ('mixed', 'locks', 'chaos', 'elect', 'fuzz', 'abortstorm', 'overload') or 'all' to rotate")
		dstOps      = flag.Int("dstops", 0, "dst: operations per client (0 = scenario default)")
		dstVerbose  = flag.Bool("dstv", false, "dst: print one line per seed")
	)
	flag.Parse()

	switch *mode {
	case "complexity":
		err := runComplexity(complexityConfig{
			seed:      *seed,
			trials:    *trials,
			quick:     *quick,
			out:       *cxOut,
			benchPre:  *cxPre,
			benchPost: *cxPost,
		})
		if err != nil {
			fatalf("tasbench: %v", err)
		}
		return
	case "dst":
		err := runDST(dstConfig{
			seeds:    *dstSeeds,
			base:     uint64(*seed),
			scenario: *dstScenario,
			ops:      *dstOps,
			verbose:  *dstVerbose,
		})
		if err != nil {
			fatalf("tasbench: %v", err)
		}
		return
	case "hold":
		if err := runHold(*netAddr, *holdLock, *ttl, *holdFor); err != nil {
			fatalf("tasbench: %v", err)
		}
		return
	case "net":
		err := runNet(netConfig{
			scenario: *scenario,
			clients:  *clients,
			pipeline: *pipeline,
			locks:    *nlocks,
			duration: *duration,
			ttl:      *ttl,
			abandon:  *abandon,
			wait:     *netWait,
			addr:     *netAddr,
			algo:     *algo,
			seed:     *seed,
			out:      *netOut,
			floor:    *netFloor,
		})
		if err != nil {
			fatalf("tasbench: %v", err)
		}
		return
	case "experiments":
		// fall through to the simulator tables below
	default:
		fatalf("tasbench: unknown -mode %q (want 'experiments', 'net', 'hold', 'dst' or 'complexity')", *mode)
	}

	cfg := config{trials: *trials, seed: *seed, quick: *quick}

	experiments := []struct {
		id   string
		desc string
		run  func(config) []harness.Table
	}{
		{"E1", "Lemma 2.2: Figure 1 group election performance", runE1},
		{"E2", "Theorem 2.3: O(log* k) leader election", runE2},
		{"E3", "Sec 2.3/Theorem 2.4: sifting leader elections", runE3},
		{"E4", "Section 3: RatRace steps and space", runE4},
		{"E5", "Theorem 4.1: adversary-independent combination", runE5},
		{"E6", "Theorem 5.1: space lower bound (covering adversary)", runE6},
		{"E7", "Theorem 6.1: 2-process time lower bound", runE7},
		{"E8", "Claim 3.2: leaf-block occupancy tail", runE8},
		{"E9", "Adversary separation attacks", runE9},
		{"E10", "Cross-algorithm step comparison", runE10},
		{"E11", "Tromp-Vitanyi 2-process building block", runE11},
	}

	want := strings.ToUpper(*experiment)
	ran := false
	for _, e := range experiments {
		if want != "ALL" && want != e.id {
			continue
		}
		ran = true
		fmt.Printf("### %s — %s\n\n", e.id, e.desc)
		for _, tbl := range e.run(cfg) {
			fmt.Println(tbl.String())
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *experiment)
		os.Exit(1)
	}
}

// fatalf prints to stderr and exits non-zero; every mode's failures must
// fail CI.
func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

type config struct {
	trials int
	seed   int64
	quick  bool
}

func (c config) ks(full []int) []int {
	if !c.quick {
		return full
	}
	if len(full) > 3 {
		return full[:3]
	}
	return full
}

func (c config) t(n int) int {
	if c.quick && n > 20 {
		return 20
	}
	return n
}

// --- factories --------------------------------------------------------------

func logStarFactory(s shm.Space, n int) (harness.Elector, func(int) bool) {
	le := core.NewLogStar(s, n)
	return le, le.IsArrayRegister
}

func siftingFactory(s shm.Space, n int) (harness.Elector, func(int) bool) {
	return core.NewSifting(s, n), nil
}

func adaptiveSiftFactory(s shm.Space, n int) (harness.Elector, func(int) bool) {
	return core.NewAdaptiveSifting(s, n), nil
}

func ratraceSEFactory(s shm.Space, n int) (harness.Elector, func(int) bool) {
	return ratrace.NewSpaceEfficient(s, n), nil
}

func agtvFactory(s shm.Space, n int) (harness.Elector, func(int) bool) {
	return agtv.New(s, n), nil
}

func aaFactory(s shm.Space, n int) (harness.Elector, func(int) bool) {
	return aa.NewSpaceEfficient(s, n), nil
}

func combinedFactory(s shm.Space, n int) (harness.Elector, func(int) bool) {
	rr := ratrace.NewSpaceEfficient(s, n)
	chain := core.NewLogStar(s, n)
	return combiner.New(s, rr, chain), chain.IsArrayRegister
}

func randomObl(seed int64) sim.Adversary { return sim.NewRandomOblivious(seed) }

// measure runs one Monte Carlo cell through the parallel harness driver,
// exiting with a descriptive message if any trial violates the one-winner
// contract.
func measure(algo string, f harness.Factory, n, k, trials int, seed int64, adv harness.AdversaryFactory) harness.StepStats {
	st, err := harness.Run(harness.Spec{
		Algorithm: algo,
		Factory:   f,
		N:         n,
		K:         k,
		Trials:    trials,
		BaseSeed:  seed,
		Adversary: adv,
	})
	if err != nil {
		fatalf("tasbench: %v", err)
	}
	return st
}

// --- E1: Figure 1 group election performance --------------------------------

func runE1(c config) []harness.Table {
	tbl := harness.Table{
		Title:   "Fig.1 group election: E[#elected] vs k (location-oblivious schedule)",
		Headers: []string{"k", "E[#elected]", "bound 2·log2(k)+6", "within"},
		Notes:   []string{"Lemma 2.2: the mean must stay below the bound for every k."},
	}
	const n = 1 << 12
	for _, k := range c.ks([]int{2, 8, 32, 128, 512, 2048}) {
		sum := 0
		trials := c.t(c.trials)
		sys := sim.NewSystem(sim.Config{N: k, Seed: c.seed, Reuse: true})
		ge := groupelect.NewFig1(sys, n)
		elected := 0
		body := func(h shm.Handle) {
			if ge.Elect(h) {
				elected++
			}
		}
		for t := 0; t < trials; t++ {
			sys.Reset(c.seed + int64(t))
			elected = 0
			sys.Run(sim.NewRandomOblivious(c.seed+int64(t)+999), body)
			sum += elected
		}
		sys.Release()
		mean := float64(sum) / float64(trials)
		bound := 2*math.Log2(float64(k)) + 6
		tbl.AddRow(k, mean, bound, mean <= bound)
	}
	return []harness.Table{tbl}
}

// --- E2: log* leader election ------------------------------------------------

func runE2(c config) []harness.Table {
	steps := harness.Table{
		Title:   "log* LE: expected max steps vs contention k (oblivious schedule, n=4096)",
		Headers: []string{"k", "E[max steps]", "p95", "log*(k)", "winners/trials"},
		Notes:   []string{"Theorem 2.3: growth must track log* k — essentially flat."},
	}
	const n = 1 << 12
	for _, k := range c.ks([]int{2, 8, 64, 512, 4096}) {
		st := measure("logstar", logStarFactory, n, k, c.t(c.trials), c.seed, harness.Oblivious(randomObl))
		steps.AddRow(k, st.MeanMax, st.P95Max, markov.LogStar(float64(k)), fmt.Sprintf("%d/%d", st.Winners, st.Trials))
	}
	space := harness.Table{
		Title:   "log* LE: registers vs n",
		Headers: []string{"n", "registers", "registers/n"},
		Notes:   []string{"Theorem 2.3: O(n) space."},
	}
	for _, n := range []int{256, 1024, 4096, 16384} {
		sys := sim.NewSystem(sim.Config{N: 1, Seed: 1})
		core.NewLogStar(sys, n)
		r := sys.RegisterCount()
		space.AddRow(n, r, float64(r)/float64(n))
	}
	return []harness.Table{steps, space}
}

// --- E3: sifting leader elections ---------------------------------------------

func runE3(c config) []harness.Table {
	nonAdaptive := harness.Table{
		Title:   "Sifting LE (non-adaptive): expected max steps vs k (n=4096)",
		Headers: []string{"k", "E[max steps]", "p95", "loglog(n)"},
		Notes:   []string{"Section 2.3: O(log log n), independent of k."},
	}
	const n = 1 << 12
	for _, k := range c.ks([]int{2, 8, 64, 512, 4096}) {
		st := measure("sifting", siftingFactory, n, k, c.t(c.trials), c.seed, harness.Oblivious(randomObl))
		nonAdaptive.AddRow(k, st.MeanMax, st.P95Max, markov.LogLog(float64(n)))
	}
	adaptive := harness.Table{
		Title:   "Adaptive sifting LE (Thm 2.4): expected max steps vs k (n=4096)",
		Headers: []string{"k", "E[max steps]", "p95", "loglog(k)"},
		Notes:   []string{"Theorem 2.4: growth must track log log k."},
	}
	for _, k := range c.ks([]int{2, 8, 64, 512, 4096}) {
		st := measure("adaptive-sifting", adaptiveSiftFactory, n, k, c.t(c.trials), c.seed, harness.Oblivious(randomObl))
		adaptive.AddRow(k, st.MeanMax, st.P95Max, markov.LogLog(float64(k)))
	}
	return []harness.Table{nonAdaptive, adaptive}
}

// --- E4: RatRace ----------------------------------------------------------------

func runE4(c config) []harness.Table {
	steps := harness.Table{
		Title:   "Space-efficient RatRace: expected max steps vs k (adaptive lockstep, n=1024)",
		Headers: []string{"k", "E[max steps]", "p95", "worst", "log2(k)"},
		Notes:   []string{"Section 3: O(log k) in expectation and w.h.p. against the adaptive adversary."},
	}
	const n = 1 << 10
	for _, k := range c.ks([]int{2, 8, 64, 256, 1024}) {
		st := measure("ratrace-se", ratraceSEFactory, n, k, c.t(c.trials),
			c.seed, func(int64, func(int) bool) sim.Adversary { return sim.NewLockstep() })
		steps.AddRow(k, st.MeanMax, st.P95Max, st.WorstMax, math.Log2(float64(k)))
	}
	space := harness.Table{
		Title:   "RatRace space: original Θ(n³) vs modified Θ(n)",
		Headers: []string{"n", "orig registers", "modified registers", "ratio"},
		Notes:   []string{"Section 3.2: the modification removes the n³ tree and n² grid."},
	}
	for _, n := range []int{4, 8, 16, 32} {
		so := sim.NewSystem(sim.Config{N: 1, Seed: 1})
		ratrace.NewOriginal(so, n)
		sm := sim.NewSystem(sim.Config{N: 1, Seed: 1})
		ratrace.NewSpaceEfficient(sm, n)
		space.AddRow(n, so.RegisterCount(), sm.RegisterCount(),
			float64(so.RegisterCount())/float64(sm.RegisterCount()))
	}
	return []harness.Table{steps, space}
}

// --- E5: combiner ----------------------------------------------------------------

func runE5(c config) []harness.Table {
	attack := harness.Table{
		Title:   "Adaptive (ascending-location) attack: naive log* vs combined",
		Headers: []string{"k", "naive max steps", "combined max steps"},
		Notes: []string{
			"Theorem 4.1: the naive chain degrades to Θ(k); the combination stays O(log k).",
		},
	}
	for _, k := range c.ks([]int{8, 16, 32, 64, 128}) {
		naive := measure("logstar", logStarFactory, k, k, 1, c.seed,
			func(_ int64, isArr func(int) bool) sim.Adversary { return sim.NewAscendingLocation(isArr) })
		comb := measure("combined", combinedFactory, k, k, 1, c.seed,
			func(_ int64, isArr func(int) bool) sim.Adversary { return sim.NewAscendingLocation(isArr) })
		attack.AddRow(k, naive.WorstMax, comb.WorstMax)
	}
	weak := harness.Table{
		Title:   "Oblivious schedule: plain log* vs combined (constant-factor overhead)",
		Headers: []string{"k", "plain E[max]", "combined E[max]", "ratio"},
	}
	const n = 512
	for _, k := range c.ks([]int{4, 32, 256}) {
		plain := measure("logstar", logStarFactory, n, k, c.t(40), c.seed, harness.Oblivious(randomObl))
		comb := measure("combined", combinedFactory, n, k, c.t(40), c.seed, harness.Oblivious(randomObl))
		weak.AddRow(k, plain.MeanMax, comb.MeanMax, comb.MeanMax/plain.MeanMax)
	}
	return []harness.Table{attack, weak}
}

// --- E6: covering space lower bound ----------------------------------------------

func runE6(c config) []harness.Table {
	tbl := harness.Table{
		Title:   "Covering adversary vs log* LE: covered registers vs Theorem 5.1 bound",
		Headers: []string{"n", "groups m", "f(n-4)", "covered regs", "bound log2(n)-1", "max cover", "violations"},
		Notes: []string{
			"Lemma 5.4/Theorem 5.1: groups ≥ f(n−4) = 4(log n − 1); covered ≥ log n − 1; cover ≤ 4.",
		},
	}
	ns := []int{8, 16, 32, 64}
	if c.quick {
		ns = []int{8, 16}
	}
	for _, n := range ns {
		res := lowerbound.RunCovering(n, c.seed, func(s shm.Space) func(shm.Handle) {
			le := core.NewLogStar(s, n)
			return func(h shm.Handle) { le.Elect(h) }
		})
		f := lowerbound.F(n, n-4)
		_, bound := lowerbound.SpaceBound(n)
		tbl.AddRow(n, res.Groups, f[n-4], res.CoveredRegisters, bound,
			res.MaxCoverPerRegister, len(res.Violations))
	}
	return []harness.Table{tbl}
}

// --- E7: two-process time lower bound --------------------------------------------

func runE7(c config) []harness.Table {
	tbl := harness.Table{
		Title:   "2-process TAS: max over schedules of P[some process needs ≥ t steps]",
		Headers: []string{"t", "|S_t|", "max prob", "bound 1/4^t", "≥ bound"},
		Notes:   []string{"Theorem 6.1: every randomized 2-process TAS respects the bound."},
	}
	// The losing process's shortest path is 6 steps (done-read, flag
	// raise, flag read, one re-flip write+read, done-write), so the
	// probability is exactly 1 up to t = 6 and the bound becomes
	// non-trivial from t = 7.
	ts := []int{1, 2, 3, 4, 5, 6, 7}
	if c.quick {
		ts = []int{1, 2, 3}
	}
	for _, t := range ts {
		p := lowerbound.TwoProcessTimeBound(t, c.t(c.trials), c.seed)
		tbl.AddRow(t, p.Schedules, fmt.Sprintf("%.4f", p.MaxProb),
			fmt.Sprintf("%.4f", p.Bound), p.MaxProb >= p.Bound)
	}
	return []harness.Table{tbl}
}

// --- E8: Claim 3.2 occupancy ------------------------------------------------------

func runE8(c config) []harness.Table {
	tbl := harness.Table{
		Title:   "Claim 3.2: P[some log n leaf block receives > 4 log n of n random descents]",
		Headers: []string{"n", "threshold 4·log2 n", "overflow fraction", "1/n²"},
		Notes:   []string{"The balls-in-bins tail that sizes the elimination paths."},
	}
	for _, n := range []int{64, 256, 1024} {
		height := int(math.Ceil(math.Log2(float64(n))))
		threshold := 4 * height
		trials := c.t(c.trials) * 10
		exceed := 0
		g := rng.New(uint64(c.seed) + uint64(n))
		for t := 0; t < trials; t++ {
			blocks := make([]int, n/height+1)
			for ball := 0; ball < n; ball++ {
				leaf := int(g.Next() % uint64(n))
				blocks[leaf/height]++
			}
			for _, b := range blocks {
				if b > threshold {
					exceed++
					break
				}
			}
		}
		tbl.AddRow(n, threshold, float64(exceed)/float64(trials), 1/float64(n*n))
	}
	return []harness.Table{tbl}
}

// --- E9: adversary separation ------------------------------------------------------

func runE9(c config) []harness.Table {
	tbl := harness.Table{
		Title:   "Group elections under mismatched adversaries: E[#elected] (want ≈ k)",
		Headers: []string{"k", "Fig.1 + ascending(R/W-obl)", "sifter + readers-first(loc-obl)", "matched Fig.1", "matched sifter"},
		Notes: []string{
			"Each group election collapses to f(k)=k under the other model's adversary (Sections 2.2–2.3).",
		},
	}
	for _, k := range c.ks([]int{8, 32, 128, 512}) {
		fig1Attack := measureGE(c, k, func(s shm.Space) geWithLayout {
			g := groupelect.NewFig1(s, 1024)
			return geWithLayout{g, g.ArrayRegisterIDs()}
		}, true, false)
		siftAttack := measureGE(c, k, func(s shm.Space) geWithLayout {
			return geWithLayout{groupelect.NewSifter(s, groupelect.SifterPi(k)), nil}
		}, false, true)
		fig1Fair := measureGE(c, k, func(s shm.Space) geWithLayout {
			g := groupelect.NewFig1(s, 1024)
			return geWithLayout{g, nil}
		}, false, false)
		siftFair := measureGE(c, k, func(s shm.Space) geWithLayout {
			return geWithLayout{groupelect.NewSifter(s, groupelect.SifterPi(k)), nil}
		}, false, false)
		tbl.AddRow(k, fig1Attack, siftAttack, fig1Fair, siftFair)
	}
	return []harness.Table{tbl}
}

type geWithLayout struct {
	ge       groupelect.GroupElector
	arrayIDs []int
}

func measureGE(c config, k int, mk func(s shm.Space) geWithLayout, ascending, readersFirst bool) float64 {
	trials := c.t(40)
	sum := 0
	sys := sim.NewSystem(sim.Config{N: k, Seed: c.seed, Reuse: true})
	defer sys.Release()
	g := mk(sys)
	ids := map[int]bool{}
	for _, id := range g.arrayIDs {
		ids[id] = true
	}
	elected := 0
	body := func(h shm.Handle) {
		if g.ge.Elect(h) {
			elected++
		}
	}
	for t := 0; t < trials; t++ {
		sys.Reset(c.seed + int64(t))
		var adv sim.Adversary
		switch {
		case ascending:
			adv = sim.NewAscendingLocation(func(r int) bool { return ids[r] })
		case readersFirst:
			adv = sim.NewReadersFirst()
		default:
			adv = sim.NewRandomOblivious(c.seed + int64(t) + 7)
		}
		elected = 0
		sys.Run(adv, body)
		sum += elected
	}
	return float64(sum) / float64(trials)
}

// --- E10: cross-algorithm comparison -------------------------------------------------

func runE10(c config) []harness.Table {
	tbl := harness.Table{
		Title:   "All algorithms, one workload: E[max steps] under oblivious schedule (n=1024)",
		Headers: []string{"k", "AGTV", "RatRace-SE", "AA", "sifting", "adaptive-sift", "log*", "combined"},
		Notes: []string{
			"Expected shape: AGTV flat ≈ c·log n; RatRace grows with log k; AA flat ≈ c·loglog n;",
			"sifting flat ≈ c·loglog n; adaptive-sift grows with loglog k; log* nearly flat.",
		},
	}
	const n = 1 << 10
	factories := []struct {
		name string
		f    harness.Factory
	}{
		{"agtv", agtvFactory}, {"ratrace-se", ratraceSEFactory}, {"aa", aaFactory},
		{"sifting", siftingFactory}, {"adaptive-sifting", adaptiveSiftFactory},
		{"logstar", logStarFactory}, {"combined", combinedFactory},
	}
	for _, k := range c.ks([]int{2, 16, 128, 1024}) {
		row := []interface{}{k}
		for _, f := range factories {
			st := measure(f.name, f.f, n, k, c.t(40), c.seed, harness.Oblivious(randomObl))
			row = append(row, st.MeanMax)
		}
		tbl.AddRow(row...)
	}
	return []harness.Table{tbl}
}

// --- E11: two-process building block ---------------------------------------------------

func runE11(c config) []harness.Table {
	tbl := harness.Table{
		Title:   "2-process LE: expected max steps by schedule",
		Headers: []string{"schedule", "E[max steps]", "p99"},
		Notes:   []string{"Tromp–Vitányi [13]: O(1) expected steps against every adversary."},
	}
	advs := []struct {
		name string
		mk   func(seed int64) sim.Adversary
	}{
		{"round-robin", func(int64) sim.Adversary { return sim.NewRoundRobin() }},
		{"random", func(s int64) sim.Adversary { return sim.NewRandomOblivious(s) }},
		{"lockstep", func(int64) sim.Adversary { return sim.NewLockstep() }},
		{"solo-first", func(int64) sim.Adversary { return sim.NewSoloFirst() }},
	}
	trials := c.t(c.trials) * 10
	for _, a := range advs {
		var maxes []int
		sum := 0
		sys := sim.NewSystem(sim.Config{N: 2, Seed: c.seed, Reuse: true})
		le := twoproc.New(sys)
		body := func(h shm.Handle) {
			le.Elect(h, h.ID())
		}
		var res sim.Result
		for t := 0; t < trials; t++ {
			sys.Reset(c.seed + int64(t))
			sys.RunInto(a.mk(c.seed+int64(t)), body, &res)
			sum += res.MaxSteps
			maxes = append(maxes, res.MaxSteps)
		}
		sys.Release()
		sort.Ints(maxes)
		tbl.AddRow(a.name, float64(sum)/float64(trials), maxes[len(maxes)*99/100])
	}
	return []harness.Table{tbl}
}
