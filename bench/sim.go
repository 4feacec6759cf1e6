package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"time"

	"repro/internal/agtv"
	"repro/internal/combiner"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/ratrace"
	"repro/internal/shm"
	"repro/internal/sim"
)

// Elector factories shared by the sim workload and the ladder. They run
// on either backend: sim.System and concurrent.Space are both shm.Spaces.
func logstarFactory(s shm.Space, n int) (harness.Elector, func(int) bool) {
	le := core.NewLogStar(s, n)
	return le, le.IsArrayRegister
}

func combinedFactory(s shm.Space, n int) (harness.Elector, func(int) bool) {
	chain := core.NewLogStar(s, n)
	return combiner.New(s, ratrace.NewSpaceEfficient(s, n), chain), chain.IsArrayRegister
}

func ratraceFactory(s shm.Space, n int) (harness.Elector, func(int) bool) {
	return ratrace.NewSpaceEfficient(s, n), nil
}

func agtvFactory(s shm.Space, n int) (harness.Elector, func(int) bool) {
	return agtv.New(s, n), nil
}

var randomOblivious = harness.Oblivious(func(seed int64) sim.Adversary { return sim.NewRandomOblivious(seed) })

func lockstep(int64, func(int) bool) sim.Adversary { return sim.NewLockstep() }

// simCell is one Monte Carlo cell of sim-montecarlo. trials is the cell's
// share of one rotation; a rotation of all three cells takes about 50 ms
// on the reference host, so a run stops within one rotation of its
// deadline and always measures whole rotations.
type simCell struct {
	name      string
	factory   harness.Factory
	n, k      int
	adversary string
	trials    int
}

var simCells = []simCell{
	{"logstar", logstarFactory, 1024, 16, "random-oblivious", 512},
	{"combined", combinedFactory, 256, 16, "random-oblivious", 96},
	{"ratrace-se", ratraceFactory, 1024, 16, "lockstep", 80},
}

// goldenSeed is the harness base seed of the golden rotation.
const goldenSeed = 1

//go:embed testdata/sim-montecarlo.golden.json
var goldenFile []byte

// cellResult is one cell's outcome as the golden file records it.
type cellResult struct {
	Cell      string            `json:"cell"`
	N         int               `json:"n"`
	K         int               `json:"k"`
	Adversary string            `json:"adversary"`
	Trials    int               `json:"trials"`
	BaseSeed  int64             `json:"base_seed"`
	Stats     harness.StepStats `json:"stats"`
}

// trialClock counts and clocks finished trials from the harness's
// worker goroutines, each into the measured window it finished in.
type trialClock struct {
	mu   sync.Mutex     // guards the windows' reservoirs
	cur  func() *window // nil: the golden check, not measured
	tr   *tracer        // nil: not traced
	root int
}

func (tc *trialClock) trial(start, end time.Time) {
	if tc.cur != nil {
		if win := tc.cur(); win != nil {
			win.ops.Add(1)
			tc.mu.Lock()
			win.lat.add(end.Sub(start).Nanoseconds())
			tc.mu.Unlock()
		}
	}
	if tc.tr != nil {
		tc.tr.add(spanTrial, tc.root, start, end)
	}
}

const (
	spanHarnessRun = iota
	spanTrial
)

// timedElector wraps a harness elector to clock whole trials: the k-th
// Elect to return in one of the worker's Systems ends a trial. A
// System's processes step one at a time under the simulator's
// handshake, so the counters need no lock.
type timedElector struct {
	le    harness.Elector
	k     int
	done  int
	last  time.Time
	clock *trialClock
}

func (t *timedElector) Elect(h shm.Handle) bool {
	won := t.le.Elect(h)
	if t.done++; t.done == t.k {
		now := time.Now()
		t.clock.trial(t.last, now)
		t.last, t.done = now, 0
	}
	return won
}

// runCell runs one cell through harness.Run with the given base seed and
// worker count (0: GOMAXPROCS), clocking trials when clock is non-nil.
func runCell(c simCell, base int64, workers int, clock *trialClock) (cellResult, error) {
	f := c.factory
	if clock != nil {
		f = func(s shm.Space, n int) (harness.Elector, func(int) bool) {
			le, isArray := c.factory(s, n)
			return &timedElector{le: le, k: c.k, last: time.Now(), clock: clock}, isArray
		}
	}
	adv := randomOblivious
	if c.adversary == "lockstep" {
		adv = lockstep
	}
	st, err := harness.Run(harness.Spec{
		Algorithm: c.name, Factory: f, N: c.n, K: c.k, Trials: c.trials,
		BaseSeed: base, Adversary: adv, Workers: workers,
	})
	return cellResult{c.name, c.n, c.k, c.adversary, c.trials, base, st}, err
}

// goldenRotation runs every cell once at goldenSeed.
func goldenRotation(workers int) ([]cellResult, error) {
	var out []cellResult
	for _, c := range simCells {
		r, err := runCell(c, goldenSeed, workers, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// checkGolden compares a golden rotation's results with the golden file.
func checkGolden(got []cellResult, golden []byte) error {
	var want []cellResult
	if err := json.Unmarshal(golden, &want); err != nil {
		return fmt.Errorf("golden file: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		g, _ := json.Marshal(got)
		return fmt.Errorf("golden rotation differs from the golden file:\n got %s\nwant %s", g, golden)
	}
	return nil
}

func setupSimMonteCarlo(o *runOpts) (*load, error) {
	golden := o.golden
	if golden == nil {
		golden = goldenFile
	}
	var (
		rotation  int64
		goldenErr error
		goldenRan bool
		runErr    error
	)
	base := derive(o.seed, "sim")
	step := func(c *opCtx) (int64, int64) {
		r := rotation
		rotation++
		var failed int64
		var results []cellResult
		for i, cell := range simCells {
			seed := base + r*int64(len(simCells)) + int64(i)
			if r == 0 {
				seed = goldenSeed
			}
			clock := &trialClock{cur: c.current, tr: c.tr, root: c.begin(spanHarnessRun, -1)}
			res, err := runCell(cell, seed, 0, clock)
			c.end(clock.root)
			if err != nil {
				// A cell whose trial broke the one-winner contract counts
				// as one failed op.
				failed++
				if win := c.current(); win != nil {
					win.ops.Add(1)
					win.failed.Add(1)
				}
				if runErr == nil {
					runErr = err
				}
			}
			results = append(results, res)
		}
		if r == 0 {
			goldenRan = true
			if failed == 0 {
				goldenErr = checkGolden(results, golden)
			}
		}
		return 0, 0 // counted per trial by the trial clocks
	}
	finish := func() []string {
		var out []string
		if runErr != nil {
			out = append(out, runErr.Error())
		}
		if !goldenRan {
			out = append(out, "the golden rotation never ran")
		}
		if goldenErr != nil {
			out = append(out, goldenErr.Error())
		}
		return out
	}
	return &load{workers: 1, sharedTracer: true, selfCounting: true,
		spanNames: []string{"harness.run", "sim.trial"}, step: step, finish: finish}, nil
}
