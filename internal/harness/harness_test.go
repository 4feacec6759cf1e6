package harness

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/combiner"
	"repro/internal/core"
	"repro/internal/ratrace"
	"repro/internal/shm"
	"repro/internal/sim"
)

func logStarFactory(s shm.Space, n int) (Elector, func(int) bool) {
	le := core.NewLogStar(s, n)
	return le, le.IsArrayRegister
}

func logStarSpec(trials, workers int) Spec {
	return Spec{
		Algorithm: "logstar",
		Factory:   logStarFactory,
		N:         32,
		K:         8,
		Trials:    trials,
		BaseSeed:  1,
		Adversary: Oblivious(func(seed int64) sim.Adversary {
			return sim.NewRandomOblivious(seed)
		}),
		Workers: workers,
	}
}

func TestRun(t *testing.T) {
	st, err := Run(logStarSpec(20, 0))
	if err != nil {
		t.Fatal(err)
	}
	if st.Winners != st.Trials {
		t.Errorf("winners = %d, want %d (one per trial)", st.Winners, st.Trials)
	}
	if st.MeanMax <= 0 || st.WorstMax < st.P95Max || float64(st.WorstMax) < st.MeanMax {
		t.Errorf("inconsistent stats: %+v", st)
	}
	if st.Registers <= 0 {
		t.Errorf("registers not recorded: %+v", st)
	}
	if st.MeanTotal < st.MeanMax {
		t.Errorf("total below max: %+v", st)
	}
}

// TestSequentialParallelEquivalence is the harness half of the engine
// determinism contract: the aggregated StepStats of a sweep must be
// byte-identical whether its trials run on one worker or many, across
// several algorithms and worker counts. The combined elector's processes
// keep their fibers parked between the trials of a worker.
func TestSequentialParallelEquivalence(t *testing.T) {
	specs := map[string]func(trials, workers int) Spec{
		"logstar": logStarSpec,
		"combined": func(trials, workers int) Spec {
			return Spec{
				Algorithm: "combined",
				Factory: func(s shm.Space, n int) (Elector, func(int) bool) {
					chain := core.NewLogStar(s, n)
					return combiner.New(s, ratrace.NewSpaceEfficient(s, n), chain), chain.IsArrayRegister
				},
				N:        64,
				K:        8,
				Trials:   trials,
				BaseSeed: 7,
				Adversary: Oblivious(func(seed int64) sim.Adversary {
					return sim.NewRandomOblivious(seed)
				}),
				Workers: workers,
			}
		},
		"sifting": func(trials, workers int) Spec {
			return Spec{
				Algorithm: "sifting",
				Factory: func(s shm.Space, n int) (Elector, func(int) bool) {
					return core.NewSifting(s, n), nil
				},
				N:      64,
				K:      16,
				Trials: trials,
				// Different base seed exercises the seed mapping too.
				BaseSeed: 42,
				Adversary: Oblivious(func(seed int64) sim.Adversary {
					return sim.NewRandomOblivious(seed)
				}),
				Workers: workers,
			}
		},
	}
	for name, mk := range specs {
		seq, err := Run(mk(60, 1))
		if err != nil {
			t.Fatalf("%s sequential: %v", name, err)
		}
		for _, workers := range []int{2, 4, 7} {
			par, err := Run(mk(60, workers))
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if !reflect.DeepEqual(seq, par) {
				t.Errorf("%s: workers=%d stats diverge from sequential:\nseq: %+v\npar: %+v",
					name, workers, seq, par)
			}
		}
	}
}

// TestRMRStatsParallelEquivalence extends the worker-count contract to
// the RMR aggregates: with Spec.CountRMRs the RMR fields must be
// populated, byte-identical across worker counts, and bounded by the step
// statistics (every step is at most one remote reference in either
// model). A counters-off run of the same cell must agree on every step
// field and report zero RMRs — accounting never perturbs the executions.
func TestRMRStatsParallelEquivalence(t *testing.T) {
	mk := func(trials, workers int, count bool) Spec {
		s := logStarSpec(trials, workers)
		s.CountRMRs = count
		return s
	}
	seq, err := Run(mk(60, 1, true))
	if err != nil {
		t.Fatal(err)
	}
	if seq.MeanMaxCC <= 0 || seq.MeanMaxDSM <= 0 || seq.MeanTotalCC <= 0 || seq.MeanTotalDSM <= 0 {
		t.Fatalf("RMR stats not populated: %+v", seq)
	}
	if seq.MeanMaxCC > seq.MeanMax || seq.MeanTotalCC > seq.MeanTotal ||
		seq.MeanMaxDSM > seq.MeanMax || seq.MeanTotalDSM > seq.MeanTotal {
		t.Fatalf("RMRs exceed steps: %+v", seq)
	}
	for _, workers := range []int{2, 5} {
		par, err := Run(mk(60, workers, true))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("workers=%d RMR stats diverge from sequential:\nseq: %+v\npar: %+v", workers, seq, par)
		}
	}
	off, err := Run(mk(60, 1, false))
	if err != nil {
		t.Fatal(err)
	}
	if off.MeanMaxCC != 0 || off.P95MaxCC != 0 || off.MeanTotalCC != 0 ||
		off.MeanMaxDSM != 0 || off.P95MaxDSM != 0 || off.MeanTotalDSM != 0 {
		t.Errorf("counters-off run reports RMRs: %+v", off)
	}
	zeroed := seq
	zeroed.MeanMaxCC, zeroed.P95MaxCC, zeroed.MeanTotalCC = 0, 0, 0
	zeroed.MeanMaxDSM, zeroed.P95MaxDSM, zeroed.MeanTotalDSM = 0, 0, 0
	if !reflect.DeepEqual(zeroed, off) {
		t.Errorf("step stats differ with counters on vs off:\non:  %+v\noff: %+v", zeroed, off)
	}
}

// brokenElector violates the one-winner contract: everybody wins.
type brokenElector struct{}

func (brokenElector) Elect(h shm.Handle) bool { return true }

func TestRunFailsFastOnWinnerViolation(t *testing.T) {
	spec := Spec{
		Algorithm: "everybody-wins",
		Factory: func(s shm.Space, n int) (Elector, func(int) bool) {
			s.NewRegister(0) // an elector must own at least one register
			return brokenElector{}, nil
		},
		N:      8,
		K:      4,
		Trials: 10,
		// BaseSeed chosen so the failing trial seed is easy to assert.
		BaseSeed: 7,
		Adversary: Oblivious(func(seed int64) sim.Adversary {
			return sim.NewRoundRobin()
		}),
		Workers: 1,
	}
	_, err := Run(spec)
	if err == nil {
		t.Fatal("Run accepted a 4-winner election")
	}
	msg := err.Error()
	for _, want := range []string{"everybody-wins", "trial 0", "k=4", "seed=7", "4 winners"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}

	// The violation must also surface from the parallel path.
	spec.Workers = 4
	if _, err := Run(spec); err == nil {
		t.Error("parallel Run accepted a 4-winner election")
	}
}

func TestTrialSeedMapping(t *testing.T) {
	if TrialSeed(5, 0) != 5 {
		t.Errorf("TrialSeed(5, 0) = %d, want 5", TrialSeed(5, 0))
	}
	if TrialSeed(5, 3) != 5+3*1_000_003 {
		t.Errorf("TrialSeed(5, 3) = %d", TrialSeed(5, 3))
	}
}
