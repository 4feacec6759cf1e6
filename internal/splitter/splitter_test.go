package splitter

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/shm"
	"repro/internal/sim"
)

// runSplit executes k processes through one splitter under adv and returns
// the outcomes.
func runSplit(t *testing.T, k int, seed int64, adv sim.Adversary, randomized bool) []Outcome {
	t.Helper()
	sys := sim.NewSystem(sim.Config{N: k, Seed: seed})
	outcomes := make([]Outcome, k)
	var split func(h shm.Handle) Outcome
	if randomized {
		sp := MakeRandomized(sys)
		split = sp.Split
	} else {
		sp := New(sys)
		split = sp.Split
	}
	res := sys.Run(adv, func(h shm.Handle) {
		outcomes[h.ID()] = split(h)
	})
	for pid, ok := range res.Finished {
		if !ok {
			t.Fatalf("process %d did not finish", pid)
		}
	}
	return outcomes
}

func checkSplitterProperties(t *testing.T, outcomes []Outcome, deterministic bool) {
	t.Helper()
	k := len(outcomes)
	var stops, lefts, rights int
	for _, o := range outcomes {
		switch o {
		case Stop:
			stops++
		case Left:
			lefts++
		case Right:
			rights++
		default:
			t.Fatalf("invalid outcome %v", o)
		}
	}
	if stops > 1 {
		t.Errorf("%d processes won the splitter, want at most 1", stops)
	}
	if k == 1 && stops != 1 {
		t.Errorf("solo caller got %v, want stop", outcomes[0])
	}
	if deterministic && k > 1 {
		if lefts > k-1 {
			t.Errorf("%d of %d got left, want at most k-1", lefts, k)
		}
		if rights > k-1 {
			t.Errorf("%d of %d got right, want at most k-1", rights, k)
		}
	}
}

func TestDeterministicSplitterProperties(t *testing.T) {
	for _, k := range []int{1, 2, 3, 5, 17, 64} {
		for seed := int64(0); seed < 20; seed++ {
			out := runSplit(t, k, seed, sim.NewRandomOblivious(seed+1000), false)
			checkSplitterProperties(t, out, true)
		}
	}
}

func TestRandomizedSplitterProperties(t *testing.T) {
	for _, k := range []int{1, 2, 3, 5, 17, 64} {
		for seed := int64(0); seed < 20; seed++ {
			out := runSplit(t, k, seed, sim.NewRandomOblivious(seed+1000), true)
			checkSplitterProperties(t, out, false)
		}
	}
}

// TestSplitterSoloAlwaysStops pins the paper's "if only one process calls
// split(), the method returns S" property under every schedule (there is
// only one schedule for a solo process, but Kill paths may interfere).
func TestSplitterSoloAlwaysStops(t *testing.T) {
	out := runSplit(t, 1, 1, sim.NewRoundRobin(), false)
	if out[0] != Stop {
		t.Fatalf("solo split = %v, want stop", out[0])
	}
	out = runSplit(t, 1, 1, sim.NewRoundRobin(), true)
	if out[0] != Stop {
		t.Fatalf("solo randomized split = %v, want stop", out[0])
	}
}

// TestSplitterSequential: processes entering one after another — the first
// stops, later ones must not stop.
func TestSplitterSequential(t *testing.T) {
	out := runSplit(t, 4, 1, sim.NewSoloFirst(), false)
	if out[0] != Stop {
		t.Errorf("first sequential caller got %v, want stop", out[0])
	}
	for pid := 1; pid < 4; pid++ {
		if out[pid] == Stop {
			t.Errorf("late caller %d stopped", pid)
		}
	}
}

// TestSplitterExhaustiveTwoProcess model-checks the deterministic splitter
// for two processes over every interleaving: never two stops, never two
// processes both receiving Left, never both receiving Right.
func TestSplitterExhaustiveTwoProcess(t *testing.T) {
	// Each process takes at most 4 steps; enumerate all binary schedules
	// of length 8 (extra entries are skipped once a process finishes).
	for mask := 0; mask < 1<<8; mask++ {
		seq := make([]int, 8)
		for i := range seq {
			seq[i] = (mask >> i) & 1
		}
		sys := sim.NewSystem(sim.Config{N: 2, Seed: 1})
		sp := New(sys)
		outcomes := make([]Outcome, 2)
		res := sys.Run(sim.NewFixedSchedule(append(seq, 0, 1, 0, 1, 0, 1, 0, 1)), func(h shm.Handle) {
			outcomes[h.ID()] = sp.Split(h)
		})
		if !res.Finished[0] || !res.Finished[1] {
			t.Fatalf("mask %b: processes did not finish", mask)
		}
		if outcomes[0] == Stop && outcomes[1] == Stop {
			t.Fatalf("mask %b: both stopped", mask)
		}
		if outcomes[0] == Left && outcomes[1] == Left {
			t.Fatalf("mask %b: both left", mask)
		}
		if outcomes[0] == Right && outcomes[1] == Right {
			t.Fatalf("mask %b: both right", mask)
		}
	}
}

// TestRandomizedSplitterDirectionUnbiased checks the non-Stop outcomes of
// the randomized splitter are roughly balanced coin flips.
func TestRandomizedSplitterDirectionUnbiased(t *testing.T) {
	var lefts, total int
	for seed := int64(0); seed < 400; seed++ {
		out := runSplit(t, 2, seed, sim.NewRoundRobin(), true)
		for _, o := range out {
			switch o {
			case Left:
				lefts++
				total++
			case Right:
				total++
			}
		}
	}
	if total == 0 {
		t.Fatal("no non-stop outcomes observed")
	}
	frac := float64(lefts) / float64(total)
	if frac < 0.4 || frac > 0.6 {
		t.Errorf("left fraction = %.3f over %d outcomes, want ≈0.5", frac, total)
	}
}

// TestSplitterPropertyQuick uses testing/quick to fuzz contention levels
// and schedules against the splitter invariants.
func TestSplitterPropertyQuick(t *testing.T) {
	prop := func(kRaw uint8, seed int64) bool {
		k := int(kRaw%16) + 1
		out := runSplit(t, k, seed, sim.NewRandomOblivious(seed^0x5eed), false)
		var stops, lefts, rights int
		for _, o := range out {
			switch o {
			case Stop:
				stops++
			case Left:
				lefts++
			case Right:
				rights++
			}
		}
		if stops > 1 || stops+lefts+rights != k {
			return false
		}
		if k == 1 {
			return stops == 1
		}
		return lefts <= k-1 && rights <= k-1
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}
