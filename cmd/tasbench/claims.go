// Claims mode: the paper's theorems as one gated table.
//
// Each row runs one claim under the adversary its theorem names and
// prints the claim, the algorithm, the adversary, the currency, the
// measured value or fitted class, the bound, and PASS or FAIL. A row that
// runs a sim.Adversary prints the adversary's declared Visibility.
//
// A growth claim sweeps contention k = n over the doubling range
// 2, 4, …, 512 (64 with -quick), fits the mean per-trial maximum with
// internal/complexity, and compares the fitted class with a ceiling; a
// claim that an algorithm must degrade under the wrong adversary compares
// it with a floor instead. Over feasible sweeps log* and log log are
// inseparable, so the O(log* k) claims use the ceiling O(log log n): a
// fit of O(log n) or worse fails them. A point claim checks its bound at
// every point of its sweep and prints the first point that fails, or
// else the last one. Any FAIL makes the run exit 1.
package main

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"

	"repro/internal/aa"
	"repro/internal/agtv"
	"repro/internal/combiner"
	"repro/internal/complexity"
	"repro/internal/core"
	"repro/internal/groupelect"
	"repro/internal/harness"
	"repro/internal/lowerbound"
	"repro/internal/ratrace"
	"repro/internal/rng"
	"repro/internal/shm"
	"repro/internal/sim"
	"repro/internal/tas"
)

type claimsConfig struct {
	seed   int64
	trials int
	quick  bool
}

// sweep is the doubling range of n (and of k = n) that every row shares
// except the covering construction's and Claim 3.2's.
func (c claimsConfig) sweep() []int {
	maxN := 512
	if c.quick {
		maxN = 64
	}
	var ns []int
	for n := 2; n <= maxN; n *= 2 {
		ns = append(ns, n)
	}
	return ns
}

// trialsPer is the number of Monte Carlo trials per sweep point.
func (c claimsConfig) trialsPer() int {
	if c.quick && c.trials > 20 {
		return 20
	}
	return c.trials
}

// row is one line of the claims table.
type row struct {
	claim, algo, adversary, currency, measured, bound string
	pass                                              bool
}

// claim measures one or more rows.
type claim func(c claimsConfig) ([]row, error)

// claims lists every row of the table, in the paper's order.
func claims() []claim {
	return []claim{
		lemma22,
		collapse("Sec 2.2", "Fig.1 group election", fig1, ascendingLocation),
		growth{claim: "Thm 2.3", algo: "log* chain", factory: logStarFactory,
			adversary: lockstepReadsFirst, bound: complexity.LogLog}.run,
		growth{claim: "Sec 2.2", algo: "log* chain", factory: logStarFactory,
			adversary: ascendingLocation, trials: 1, bound: complexity.Sqrt, floor: true}.run,
		space("Thm 2.3", "log* chain", func(s shm.Space, n int) { core.NewLogStar(s, n) }),
		collapse("Sec 2.3", "sifter group election", sifter, readersFirst),
		growth{claim: "Sec 2.3", algo: "sifting chain", factory: siftingFactory,
			adversary: ascendingLocation, bound: complexity.LogLog}.run,
		growth{claim: "Sec 2.3", algo: "sifting chain", factory: siftingFactory,
			adversary: lockstepReadsFirst, trials: 1, bound: complexity.Sqrt, floor: true}.run,
		growth{claim: "Thm 2.4", algo: "adaptive sifting", factory: adaptiveSiftFactory,
			adversary: randomOblivious, bound: complexity.LogLog}.run,
		growth{claim: "Sec 3", algo: "TAS over RatRace", factory: ratraceTASFactory,
			adversary: lockstep, rmr: true, bound: complexity.Log}.run,
		space("Sec 3.2", "RatRace", func(s shm.Space, n int) { ratrace.NewSpaceEfficient(s, n) }),
		claim32,
		growth{claim: "Thm 4.1", algo: "combined", factory: combinedFactory,
			adversary: lockstep, bound: complexity.Log}.run,
		growth{claim: "Thm 4.1", algo: "combined", factory: combinedFactory,
			adversary: ascendingLocation, trials: 10, bound: complexity.Log}.run,
		covering,
		thm61,
		growth{claim: "AA [2]", algo: "AA", factory: aaFactory,
			adversary: ascendingLocation, bound: complexity.LogLog}.run,
		growth{claim: "AGTV [1]", algo: "TAS over AGTV", factory: agtvTASFactory,
			adversary: lockstep, rmr: true, bound: complexity.Log}.run,
		growth{claim: "GHW [11]", algo: "TAS over log*", factory: tasPlainFactory,
			adversary: lockstepReadsFirst, rmr: true, bound: complexity.LogLog}.run,
		growth{claim: "doorway", algo: "TAS over log*, solo", factory: tasFastFactory,
			adversary: lockstepReadsFirst, solo: true, rmr: true, bound: complexity.O1}.run,
		growth{claim: "doorway", algo: "TAS over log*", factory: tasFastFactory,
			adversary: lockstepReadsFirst, rmr: true, bound: complexity.LogLog}.run,
	}
}

// runClaims measures every claim, prints one table to w and fails if any
// row fails.
func runClaims(w io.Writer, c claimsConfig, cs []claim) error {
	var rows []row
	for _, cl := range cs {
		rs, err := cl(c)
		if err != nil {
			return err
		}
		rows = append(rows, rs...)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "claim\talgorithm\tadversary\tcurrency\tmeasured\tbound\tverdict\n")
	failed := 0
	for _, r := range rows {
		verdict := "PASS"
		if !r.pass {
			verdict = "FAIL"
			failed++
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\n",
			r.claim, r.algo, r.adversary, r.currency, r.measured, r.bound, verdict)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("claims: %d of %d rows FAIL", failed, len(rows))
	}
	fmt.Fprintf(w, "claims: all %d rows PASS (seed %d, %d trials, n ≤ %d)\n",
		len(rows), c.seed, c.trialsPer(), c.sweep()[len(c.sweep())-1])
	return nil
}

// each checks a bound at every point xs[i] of a sweep. The row shows the
// first point that fails, or else the last one.
func each(r row, x string, xs []int, check func(i int) (measured, bound string, ok bool)) row {
	for i := range xs {
		m, b, ok := check(i)
		r.measured, r.bound, r.pass = fmt.Sprintf("%s (%s=%d)", m, x, xs[i]), b, ok
		if !ok {
			break
		}
	}
	return r
}

// --- growth claims -----------------------------------------------------------

// growth is a claim about how an elector's expected worst-case step count
// (and, with rmr, its CC RMR count) grows over the sweep.
type growth struct {
	claim, algo string
	factory     harness.Factory
	adversary   harness.AdversaryFactory
	solo        bool // k = 1 at every n: the uncontended path
	// trials, if set, caps the trials per point. The rows whose attack
	// makes a trial run many steps set it: the floors 1 (the attack
	// fixes the schedule, and a trial's maximum varies by a few
	// percent), the combined algorithm under AscendingLocation 10.
	trials int
	rmr    bool // also fit the mean max CC RMRs against the same bound
	bound  complexity.Class
	floor  bool // the fit must grow at least as fast as bound
}

func (g growth) run(c claimsConfig) ([]row, error) {
	r := row{claim: g.claim, algo: g.algo, adversary: g.adversary(0, nil).Visibility().String(), currency: "steps"}
	if g.rmr {
		r.currency = "steps; CC RMRs"
	}
	ns := c.sweep()
	trials := c.trialsPer()
	if g.trials > 0 && g.trials < trials {
		trials = g.trials
	}
	var steps, ccs []float64
	for _, n := range ns {
		k := n
		if g.solo {
			k = 1
		}
		st, err := harness.Run(harness.Spec{
			Algorithm: g.algo,
			Factory:   g.factory,
			N:         n,
			K:         k,
			Trials:    trials,
			BaseSeed:  c.seed,
			Adversary: g.adversary,
			CountRMRs: g.rmr,
		})
		if err != nil {
			return nil, err
		}
		steps = append(steps, st.MeanMax)
		ccs = append(ccs, st.MeanMaxCC)
	}
	series := [][]float64{steps}
	if g.rmr {
		series = append(series, ccs)
	}
	return fitRow(r, ns, series, g.bound, g.floor)
}

// fitRow fits each series over ns and fills r's measured, bound and
// verdict cells: every fitted class must respect the bound. The measured
// cell also shows each series' value at the largest n.
func fitRow(r row, ns []int, series [][]float64, bound complexity.Class, floor bool) ([]row, error) {
	r.pass = true
	r.bound = "≤ " + bound.String()
	if floor {
		r.bound = "≥ " + bound.String()
	}
	last := len(ns) - 1
	for i, ys := range series {
		res, err := complexity.FitClasses(ns, ys)
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", r.claim, r.algo, err)
		}
		if i > 0 {
			r.measured += "; "
		}
		r.measured += fmt.Sprintf("%s, %.2f", res.Best, ys[last])
		if floor && bound.GrowsFasterThan(res.Best) || !floor && res.Best.GrowsFasterThan(bound) {
			r.pass = false
		}
	}
	r.measured += fmt.Sprintf(" (n=%d)", ns[last])
	return []row{r}, nil
}

// space is an O(n) register claim: registers/n over the sweep must fit
// O(1).
func space(name, algo string, build func(s shm.Space, n int)) claim {
	return func(c claimsConfig) ([]row, error) {
		ns := c.sweep()
		perN := make([]float64, len(ns))
		for i, n := range ns {
			sys := sim.NewSystem(sim.Config{N: 1, Seed: c.seed})
			build(sys, n)
			perN[i] = float64(sys.RegisterCount()) / float64(n)
		}
		r := row{claim: name, algo: algo, adversary: "-", currency: "registers/n"}
		return fitRow(r, ns, [][]float64{perN}, complexity.O1, false)
	}
}

// --- group-election claims ---------------------------------------------------

// fig1 and sifter build the two group elections at contention k; fig1
// also returns its R array, the static layout the R/W-oblivious attack
// reads.
func fig1(s shm.Space, k int) (groupelect.GroupElector, func(int) bool) {
	g := groupelect.NewFig1(s, k)
	ids := map[int]bool{}
	for _, id := range g.ArrayRegisterIDs() {
		ids[id] = true
	}
	return g, func(reg int) bool { return ids[reg] }
}

func sifter(s shm.Space, k int) (groupelect.GroupElector, func(int) bool) {
	return groupelect.NewSifter(s, groupelect.SifterPi(k)), nil
}

// meanElected runs a group election with k participants for the
// configured trials and returns the mean number elected.
func meanElected(c claimsConfig, k int, build func(shm.Space, int) (groupelect.GroupElector, func(int) bool),
	adversary harness.AdversaryFactory) float64 {
	sys := sim.NewSystem(sim.Config{N: k, Seed: c.seed, Reuse: true})
	defer sys.Release()
	ge, isArray := build(sys, k)
	elected := 0
	body := func(h shm.Handle) {
		if ge.Elect(h) {
			elected++
		}
	}
	trials := c.trialsPer()
	for t := 0; t < trials; t++ {
		seed := harness.TrialSeed(c.seed, t)
		sys.Reset(seed)
		sys.Run(adversary(seed^harness.AdversarySeedMix, isArray), body)
	}
	return float64(elected) / float64(trials)
}

// lemma22 is Lemma 2.2: against the location-oblivious adversary the
// Figure 1 group election elects at most 2·log2 k + 6 in expectation.
func lemma22(c claimsConfig) ([]row, error) {
	r := row{claim: "Lemma 2.2", algo: "Fig.1 group election",
		adversary: readersFirst(0, nil).Visibility().String(), currency: "E[elected]"}
	ks := c.sweep()
	return []row{each(r, "k", ks, func(i int) (string, string, bool) {
		mean := meanElected(c, ks[i], fig1, readersFirst)
		bound := 2*math.Log2(float64(ks[i])) + 6
		return fmt.Sprintf("%.2f", mean), fmt.Sprintf("≤ 2·log2 k + 6 = %.2f", bound), mean <= bound
	})}, nil
}

// collapse is the Sections 2.2–2.3 separation: under the other class's
// attack a group election elects every one of its k participants.
func collapse(name, algo string, build func(shm.Space, int) (groupelect.GroupElector, func(int) bool),
	adversary harness.AdversaryFactory) claim {
	return func(c claimsConfig) ([]row, error) {
		r := row{claim: name, algo: algo, adversary: adversary(0, nil).Visibility().String(), currency: "E[elected]"}
		ks := c.sweep()
		return []row{each(r, "k", ks, func(i int) (string, string, bool) {
			mean := meanElected(c, ks[i], build, adversary)
			return fmt.Sprintf("%.2f", mean), "= k", mean == float64(ks[i])
		})}, nil
	}
}

// --- lower bounds and the balls-in-bins tail --------------------------------

// claim32 is Claim 3.2: n random descents overflow some block of log n
// leaves past 4·log n with probability at most 1/n².
func claim32(c claimsConfig) ([]row, error) {
	r := row{claim: "Claim 3.2", algo: "RatRace leaf descents", adversary: "-", currency: "P[block > 4·log2 n]"}
	ns := []int{64, 256, 1024}
	return []row{each(r, "n", ns, func(i int) (string, string, bool) {
		n := ns[i]
		height := int(math.Ceil(math.Log2(float64(n))))
		trials := 10 * c.trialsPer()
		exceed := 0
		g := rng.New(uint64(c.seed) + uint64(n))
		blocks := make([]int, n/height+1)
		for t := 0; t < trials; t++ {
			clear(blocks)
			for ball := 0; ball < n; ball++ {
				blocks[int(g.Next()%uint64(n))/height]++
			}
			for _, b := range blocks {
				if b > 4*height {
					exceed++
					break
				}
			}
		}
		p, bound := float64(exceed)/float64(trials), 1/float64(n*n)
		return fmt.Sprintf("%.2g", p), fmt.Sprintf("≤ 1/n² = %.2g", bound), p <= bound
	})}, nil
}

// covering runs the Lemma 5.4 covering construction against the log*
// chain: Theorem 5.1's covered registers and the lemma's invariants.
func covering(c claimsConfig) ([]row, error) {
	ns := []int{8, 16, 32, 64}
	if c.quick {
		ns = ns[:2]
	}
	res := make([]lowerbound.CoveringResult, len(ns))
	for i, n := range ns {
		res[i] = lowerbound.RunCovering(n, c.seed, func(s shm.Space) func(shm.Handle) {
			le := core.NewLogStar(s, n)
			return func(h shm.Handle) { le.Elect(h) }
		})
	}
	r := func(claim, currency string) row {
		return row{claim: claim, algo: "log* chain", adversary: "covering", currency: currency}
	}
	return []row{
		each(r("Thm 5.1", "covered registers"), "n", ns, func(i int) (string, string, bool) {
			_, bound := lowerbound.SpaceBound(ns[i])
			return fmt.Sprint(res[i].CoveredRegisters), fmt.Sprintf("≥ log2 n - 1 = %d", bound), res[i].CoveredRegisters >= bound
		}),
		each(r("Lemma 5.4", "groups"), "n", ns, func(i int) (string, string, bool) {
			f := lowerbound.F(ns[i], ns[i]-4)[ns[i]-4]
			return fmt.Sprint(res[i].Groups), fmt.Sprintf("≥ f(n-4) = %d", f), res[i].Groups >= f
		}),
		each(r("Lemma 5.4", "max cover"), "n", ns, func(i int) (string, string, bool) {
			return fmt.Sprint(res[i].MaxCoverPerRegister), "≤ 4", res[i].MaxCoverPerRegister <= 4
		}),
		each(r("Lemma 5.4", "violations"), "n", ns, func(i int) (string, string, bool) {
			return fmt.Sprint(len(res[i].Violations)), "= 0", len(res[i].Violations) == 0
		}),
	}, nil
}

// thm61 is Theorem 6.1: some schedule in S_t leaves a process of the
// two-process TAS unfinished after t − 1 steps with probability at least
// 1/4^t. The loser's shortest path is 6 steps, so up to t = 6 that
// probability is 1; t = 7 is the first informative budget.
func thm61(c claimsConfig) ([]row, error) {
	const t = 7
	p := lowerbound.TwoProcessTimeBound(t, c.trialsPer(), c.seed)
	return []row{{
		claim: "Thm 6.1", algo: "2-process TAS", adversary: "every schedule in S_7",
		currency: "max P[≥ 7 steps]",
		measured: fmt.Sprintf("%.4f", p.MaxProb), bound: fmt.Sprintf("≥ 1/4^7 = %.2g", p.Bound),
		pass: p.MaxProb >= p.Bound,
	}}, nil
}

// --- adversaries and factories ----------------------------------------------

func lockstep(int64, func(int) bool) sim.Adversary           { return sim.NewLockstep() }
func lockstepReadsFirst(int64, func(int) bool) sim.Adversary { return sim.NewLockstepReadsFirst() }
func readersFirst(int64, func(int) bool) sim.Adversary       { return sim.NewReadersFirst() }
func randomOblivious(seed int64, _ func(int) bool) sim.Adversary {
	return sim.NewRandomOblivious(seed)
}
func ascendingLocation(_ int64, isArray func(int) bool) sim.Adversary {
	return sim.NewAscendingLocation(isArray)
}

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

func aaFactory(s shm.Space, n int) (harness.Elector, func(int) bool) {
	return aa.NewSpaceEfficient(s, n), nil
}

func combinedFactory(s shm.Space, n int) (harness.Elector, func(int) bool) {
	rr := ratrace.NewSpaceEfficient(s, n)
	chain := core.NewLogStar(s, n)
	return combiner.New(s, rr, chain), chain.IsArrayRegister
}

// tasElector adapts a TAS object to the harness's Elector interface: the
// unique caller that receives 0 is the winner.
type tasElector struct{ t *tas.TAS }

func (e tasElector) Elect(h shm.Handle) bool { return e.t.TAS(h) == 0 }

func tasFastFactory(s shm.Space, n int) (harness.Elector, func(int) bool) {
	inner := core.NewLogStar(s, n)
	return tasElector{tas.New(s, tas.NewFastPath(s, inner))}, inner.IsArrayRegister
}

func tasPlainFactory(s shm.Space, n int) (harness.Elector, func(int) bool) {
	inner := core.NewLogStar(s, n)
	return tasElector{tas.New(s, inner)}, inner.IsArrayRegister
}

func ratraceTASFactory(s shm.Space, n int) (harness.Elector, func(int) bool) {
	return tasElector{tas.New(s, ratrace.NewSpaceEfficient(s, n))}, nil
}

func agtvTASFactory(s shm.Space, n int) (harness.Elector, func(int) bool) {
	return tasElector{tas.New(s, agtv.New(s, n))}, nil
}
