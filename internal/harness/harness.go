// Package harness runs the paper-reproduction experiments: it drives
// algorithms under chosen adversaries on the simulator and aggregates
// step statistics for the sweeps of cmd/tasbench's claims table.
//
// The trial driver (Run) shards a cell's Monte Carlo trials across worker
// goroutines, each owning one pooled simulator System that is
// Reset-recycled between trials: the algorithm's registers and objects are
// constructed once per worker, not once per trial. Trial t always runs
// with seed TrialSeed(base, t) regardless of which worker executes it, and
// aggregation accumulates integers keyed by trial index, so the resulting
// StepStats is byte-identical whether the sweep runs on one worker or
// many.
package harness

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/shm"
	"repro/internal/sim"
)

// Elector is any leader-election object under measurement.
type Elector interface {
	Elect(h shm.Handle) bool
}

// Factory builds an elector (and its registers) on the given space. The
// driver calls it once per worker System and reuses the elector across
// that worker's trials — sim.System.Reset restores the registers, and
// every elector in this repository keeps all cross-election state in
// registers, so a reset System makes the elector as good as fresh. The
// returned attack predicate, if non-nil, is the static layout knowledge
// handed to sim.NewAscendingLocation.
type Factory func(s shm.Space, n int) (le Elector, isArrayReg func(int) bool)

// AdversaryFactory builds a fresh adversary per trial. The attack
// adversaries are stateful, so they cannot be shared across trials.
type AdversaryFactory func(seed int64, isArrayReg func(int) bool) sim.Adversary

// Oblivious wraps a seed-only adversary constructor.
func Oblivious(mk func(seed int64) sim.Adversary) AdversaryFactory {
	return func(seed int64, _ func(int) bool) sim.Adversary { return mk(seed) }
}

// TrialSeed is the documented base-seed→trial-seed mapping: trial t of a
// sweep runs on a System seeded with TrialSeed(base, t), and its adversary
// is built with TrialSeed(base, t) ^ AdversarySeedMix. The mapping is
// independent of worker count and scheduling.
func TrialSeed(base int64, trial int) int64 { return base + int64(trial)*1_000_003 }

// AdversarySeedMix decorrelates the adversary's seed from the processes'
// coin seed within a trial.
const AdversarySeedMix int64 = 0x5DEECE66D

// Spec describes one Monte Carlo cell: an algorithm at capacity N run at
// contention K under an adversary, for Trials executions.
type Spec struct {
	// Algorithm names the cell in error messages and reports.
	Algorithm string
	// Factory builds the elector; see Factory for the reuse contract.
	Factory Factory
	// N is the object capacity, K the number of participating processes.
	N, K int
	// Trials is the number of Monte Carlo executions.
	Trials int
	// BaseSeed determines every trial seed via TrialSeed.
	BaseSeed int64
	// Adversary builds the per-trial schedule.
	Adversary AdversaryFactory
	// Workers is the number of parallel trial workers; 0 means
	// GOMAXPROCS. The output is identical for every worker count.
	Workers int
	// CountRMRs enables the simulator's RMR accounting for every trial;
	// the StepStats RMR fields are zero without it. Accounting never
	// perturbs the seed→schedule mapping (golden-trace tested), so a cell
	// measured with counters sees the same executions as one without.
	CountRMRs bool
}

// StepStats aggregates per-trial maximum step counts for one (k, algo,
// adversary) cell.
type StepStats struct {
	K         int
	Trials    int
	MeanMax   float64 // mean over trials of max-per-process steps
	P95Max    int     // 95th percentile of the same
	WorstMax  int     // worst observed
	MeanTotal float64 // mean total steps across all processes
	Registers int     // allocated registers (identical across trials)
	Winners   int     // total winners observed (equals Trials on success)

	// RMR aggregates, populated only under Spec.CountRMRs: the same
	// mean-max / p95-max / mean-total shape as the step fields, in the
	// cache-coherent and distributed-shared-memory cost models.
	MeanMaxCC    float64
	P95MaxCC     int
	MeanTotalCC  float64
	MeanMaxDSM   float64
	P95MaxDSM    int
	MeanTotalDSM float64
}

// Run executes spec's Monte Carlo cell and aggregates step statistics.
// Trials are sharded across spec.Workers goroutines, each owning one
// pooled System; the aggregate is byte-identical for every worker count.
// A trial that elects anything other than exactly one winner aborts the
// sweep with a descriptive error naming the algorithm, contention, and
// trial seed — a wrong winner count is a safety violation, not a data
// point.
func Run(spec Spec) (StepStats, error) {
	if spec.Trials <= 0 {
		return StepStats{}, fmt.Errorf("harness: %s: non-positive trial count %d", spec.Algorithm, spec.Trials)
	}
	workers := spec.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > spec.Trials {
		workers = spec.Trials
	}

	maxes := make([]int, spec.Trials)
	totals := make([]int, spec.Trials)
	// RMR counterparts, allocated only when measured; like maxes/totals
	// they are keyed by trial index so parallel aggregation is exact.
	var maxCC, totCC, maxDSM, totDSM []int
	if spec.CountRMRs {
		maxCC = make([]int, spec.Trials)
		totCC = make([]int, spec.Trials)
		maxDSM = make([]int, spec.Trials)
		totDSM = make([]int, spec.Trials)
	}
	registers := 0 // written by worker 0; identical on every worker
	errs := make([]error, workers)
	errTrials := make([]int, workers)
	var next atomic.Int64
	var failed atomic.Bool

	worker := func(w int) {
		sys := sim.NewSystem(sim.Config{N: spec.K, Seed: spec.BaseSeed, Reuse: true, CountRMRs: spec.CountRMRs})
		defer sys.Release()
		le, isArray := spec.Factory(sys, spec.N)
		if w == 0 {
			registers = sys.RegisterCount()
		}
		winners := 0
		body := func(h shm.Handle) {
			if le.Elect(h) {
				winners++
			}
		}
		var res sim.Result
		for !failed.Load() {
			t := int(next.Add(1)) - 1
			if t >= spec.Trials {
				return
			}
			seed := TrialSeed(spec.BaseSeed, t)
			sys.Reset(seed)
			adv := spec.Adversary(seed^AdversarySeedMix, isArray)
			winners = 0
			sys.RunInto(adv, body, &res)
			if winners != 1 {
				errs[w] = fmt.Errorf(
					"harness: %s trial %d (k=%d, n=%d, seed=%d) elected %d winners, want exactly 1",
					spec.Algorithm, t, spec.K, spec.N, seed, winners)
				errTrials[w] = t
				failed.Store(true)
				return
			}
			maxes[t] = res.MaxSteps
			totals[t] = res.TotalSteps
			if spec.CountRMRs {
				maxCC[t] = res.MaxCCRMRs
				totCC[t] = res.TotalCCRMRs
				maxDSM[t] = res.MaxDSMRMRs
				totDSM[t] = res.TotalDSMRMRs
			}
		}
	}

	if workers == 1 {
		worker(0)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) { //taslint:allow detclock -- parallel trial sweep: each worker runs disjoint trial indices and results aggregate by index, so worker interleaving cannot reach the output
				defer wg.Done()
				worker(w)
			}(w)
		}
		wg.Wait()
	}

	// Fail fast on the earliest trial that violated the one-winner
	// contract (earliest by trial index, for a stable message).
	var err error
	errTrial := -1
	for w := range errs {
		if errs[w] != nil && (errTrial < 0 || errTrials[w] < errTrial) {
			err, errTrial = errs[w], errTrials[w]
		}
	}
	if err != nil {
		return StepStats{}, err
	}

	st := StepStats{K: spec.K, Trials: spec.Trials, Registers: registers, Winners: spec.Trials}
	st.MeanMax, st.P95Max, st.WorstMax = maxQuantiles(maxes)
	st.MeanTotal = mean(totals)
	if spec.CountRMRs {
		st.MeanMaxCC, st.P95MaxCC, _ = maxQuantiles(maxCC)
		st.MeanTotalCC = mean(totCC)
		st.MeanMaxDSM, st.P95MaxDSM, _ = maxQuantiles(maxDSM)
		st.MeanTotalDSM = mean(totDSM)
	}
	return st, nil
}

func mean(xs []int) float64 {
	sum := 0
	for _, x := range xs {
		sum += x
	}
	return float64(sum) / float64(len(xs))
}

func maxQuantiles(xs []int) (mean float64, p95, worst int) {
	sum := 0
	for _, x := range xs {
		sum += x
	}
	sorted := append([]int(nil), xs...)
	sort.Ints(sorted)
	return float64(sum) / float64(len(xs)), sorted[(len(sorted)*95)/100], sorted[len(sorted)-1]
}
