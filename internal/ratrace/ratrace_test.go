package ratrace

import (
	"math"
	"testing"

	"repro/internal/shm"
	"repro/internal/sim"
)

type elector interface {
	Elect(h shm.Handle) bool
}

type checker interface {
	violated() bool
}

type originalChecker struct{ r *Original }

func (c originalChecker) violated() bool { return c.r.gridFellOff.Load() }

type seChecker struct{ r *SpaceEfficient }

func (c seChecker) violated() bool { return c.r.BackupFellOff() }

func runRR(t *testing.T, k int, seed int64, adv sim.Adversary, mk func(s shm.Space) (elector, checker)) ([]bool, sim.Result) {
	t.Helper()
	sys := sim.NewSystem(sim.Config{N: k, Seed: seed})
	le, chk := mk(sys)
	won := make([]bool, k)
	res := sys.Run(adv, func(h shm.Handle) {
		won[h.ID()] = le.Elect(h)
	})
	for pid, ok := range res.Finished {
		if !ok {
			t.Fatalf("process %d did not finish", pid)
		}
	}
	if chk.violated() {
		t.Fatal("backup structure overflow (invariant violation)")
	}
	return won, res
}

func mkOriginal(n int) func(shm.Space) (elector, checker) {
	return func(s shm.Space) (elector, checker) {
		r := NewOriginal(s, n)
		return r, originalChecker{r}
	}
}

func mkSE(n int) func(shm.Space) (elector, checker) {
	return func(s shm.Space) (elector, checker) {
		r := NewSpaceEfficient(s, n)
		return r, seChecker{r}
	}
}

func winners(won []bool) int {
	n := 0
	for _, w := range won {
		if w {
			n++
		}
	}
	return n
}

// TestExactlyOneWinner covers both variants under fair and adaptive
// schedules at full contention and below.
func TestExactlyOneWinner(t *testing.T) {
	advs := map[string]func(seed int64) sim.Adversary{
		"round-robin": func(int64) sim.Adversary { return sim.NewRoundRobin() },
		"random":      func(s int64) sim.Adversary { return sim.NewRandomOblivious(s + 17) },
		"lockstep":    func(int64) sim.Adversary { return sim.NewLockstep() },
		"solo-first":  func(int64) sim.Adversary { return sim.NewSoloFirst() },
	}
	const n = 16
	variants := map[string]func(shm.Space) (elector, checker){
		"original":        mkOriginal(n),
		"space-efficient": mkSE(n),
	}
	for vName, mk := range variants {
		for aName, mkAdv := range advs {
			for _, k := range []int{1, 2, 5, 16} {
				for seed := int64(0); seed < 12; seed++ {
					won, _ := runRR(t, k, seed, mkAdv(seed), mk)
					if w := winners(won); w != 1 {
						t.Fatalf("%s/%s k=%d seed=%d: %d winners", vName, aName, k, seed, w)
					}
				}
			}
		}
	}
}

// TestSoloTermination: a lone process wins cheaply in both variants.
func TestSoloTermination(t *testing.T) {
	won, res := runRR(t, 1, 5, sim.NewRoundRobin(), mkOriginal(64))
	if !won[0] || res.Steps[0] > 12 {
		t.Errorf("original solo: won=%v steps=%d", won[0], res.Steps[0])
	}
	won, res = runRR(t, 1, 5, sim.NewRoundRobin(), mkSE(64))
	if !won[0] || res.Steps[0] > 12 {
		t.Errorf("space-efficient solo: won=%v steps=%d", won[0], res.Steps[0])
	}
}

// TestLogarithmicSteps: expected max steps grow like log k for the
// space-efficient variant under the adaptive lockstep schedule (the
// paper's headline O(log k) claim).
func TestLogarithmicSteps(t *testing.T) {
	const n = 256
	means := map[int]float64{}
	for _, k := range []int{4, 16, 64, 256} {
		const trials = 20
		sum := 0
		for seed := int64(0); seed < trials; seed++ {
			_, res := runRR(t, k, seed, sim.NewLockstep(), mkSE(n))
			sum += res.MaxSteps
		}
		means[k] = float64(sum) / trials
	}
	// log₂ 256 / log₂ 4 = 4: allow generous constants but reject linear
	// growth (which would be ×64).
	if means[256] > 16*means[4] {
		t.Errorf("growth looks super-logarithmic: %v", means)
	}
	if means[256] > 60*math.Log2(256) {
		t.Errorf("k=256 mean %v too large for O(log k)", means[256])
	}
}

// TestSpaceComplexity pins the headline space separation: Θ(n³)-ish for
// the original (tree of height 3·log n) versus Θ(n) for the modified
// version.
func TestSpaceComplexity(t *testing.T) {
	regsOf := func(mk func(shm.Space) (elector, checker)) int {
		sys := sim.NewSystem(sim.Config{N: 1, Seed: 1})
		mk(sys)
		return sys.RegisterCount()
	}
	origin8 := regsOf(mkOriginal(8))
	origin32 := regsOf(mkOriginal(32))
	se8 := regsOf(mkSE(8))
	se32 := regsOf(mkSE(32))
	se1k := regsOf(mkSE(1024))

	// Original: quadrupling n (8→32) should scale registers ≈ 64x (cubic).
	growth := float64(origin32) / float64(origin8)
	if growth < 30 {
		t.Errorf("original growth 8→32 = %.1fx, want ≈64x (cubic)", growth)
	}
	// Space-efficient: linear growth.
	seGrowth := float64(se32) / float64(se8)
	if seGrowth > 10 {
		t.Errorf("space-efficient growth 8→32 = %.1fx, want ≈4x (linear)", seGrowth)
	}
	if se1k > 60*1024 {
		t.Errorf("space-efficient n=1024 uses %d registers, want O(n)", se1k)
	}
	// And the crossover: at n=32 the original must already dwarf the
	// modified version.
	if origin32 < 10*se32 {
		t.Errorf("original (%d) vs modified (%d) at n=32: separation too small", origin32, se32)
	}
}

// TestBuildAllocations pins what a simulator cell pays to build its
// elector: the System and space-efficient RatRace at n = 1,024 (32,860
// registers), as BenchmarkSimTrial/build measures it. Nodes of each kind
// live in one slice (tree nodes; every elimination path's splitters and
// elections), so the count does not grow with the node count; one
// allocation per splitter or election made it about 18,900.
func TestBuildAllocations(t *testing.T) {
	allocs := testing.AllocsPerRun(5, func() {
		sys := sim.NewSystem(sim.Config{N: 16, Seed: 1, Reuse: true})
		NewSpaceEfficient(sys, 1024)
		sys.Release()
	})
	if allocs > 100 {
		t.Errorf("building space-efficient RatRace at n = 1024 made %.0f allocations, want at most 100", allocs)
	}
}

// TestEliminationPathClaim31 verifies Claim 3.1: if at most ℓ processes
// enter a path of length ℓ, none falls off, and with all entrants
// completing exactly one wins.
func TestEliminationPathClaim31(t *testing.T) {
	for _, l := range []int{1, 2, 4, 9} {
		for k := 1; k <= l; k++ {
			for seed := int64(0); seed < 20; seed++ {
				sys := sim.NewSystem(sim.Config{N: k, Seed: seed})
				p := NewEliminationPath(sys, l)
				outs := make([]PathOutcome, k)
				sys.Run(sim.NewRandomOblivious(seed+3), func(h shm.Handle) {
					outs[h.ID()] = p.Enter(h, nil)
				})
				var wonCount int
				for pid, o := range outs {
					if o == PathFellOff {
						t.Fatalf("l=%d k=%d seed=%d: process %d fell off", l, k, seed, pid)
					}
					if o == PathWon {
						wonCount++
					}
				}
				if wonCount != 1 {
					t.Fatalf("l=%d k=%d seed=%d: %d path winners", l, k, seed, wonCount)
				}
			}
		}
	}
}

// TestEliminationPathOverflow: with more entrants than nodes, falling off
// is possible and must be reported as PathFellOff, never a panic.
func TestEliminationPathOverflow(t *testing.T) {
	const l, k = 2, 8
	sawFellOff := false
	for seed := int64(0); seed < 50; seed++ {
		sys := sim.NewSystem(sim.Config{N: k, Seed: seed})
		p := NewEliminationPath(sys, l)
		outs := make([]PathOutcome, k)
		sys.Run(sim.NewLockstep(), func(h shm.Handle) {
			outs[h.ID()] = p.Enter(h, nil)
		})
		won := 0
		for _, o := range outs {
			if o == PathFellOff {
				sawFellOff = true
			}
			if o == PathWon {
				won++
			}
		}
		if won > 1 {
			t.Fatalf("seed %d: %d winners", seed, won)
		}
	}
	if !sawFellOff {
		t.Error("overloaded short path never overflowed; test is vacuous")
	}
}

// TestProgressInstrumentation: the combiner's Rule 3 depends on
// WonSplitter being set exactly when a splitter was won.
func TestProgressInstrumentation(t *testing.T) {
	// Solo process: wins the root splitter immediately.
	sys := sim.NewSystem(sim.Config{N: 1, Seed: 1})
	r := NewSpaceEfficient(sys, 8)
	var prog Progress
	sys.Run(sim.NewRoundRobin(), func(h shm.Handle) {
		r.ElectWithProgress(h, &prog)
	})
	if !prog.WonSplitter {
		t.Error("solo winner did not record a splitter win")
	}
	// At full contention some processes must lose without ever winning
	// a splitter (they lose a group... a 3-process election or fail via
	// elimination-path Left); verify at least one such process exists.
	const k = 16
	sys2 := sim.NewSystem(sim.Config{N: k, Seed: 3})
	r2 := NewSpaceEfficient(sys2, k)
	progs := make([]Progress, k)
	wonFlags := make([]bool, k)
	sys2.Run(sim.NewLockstep(), func(h shm.Handle) {
		wonFlags[h.ID()] = r2.ElectWithProgress(h, &progs[h.ID()])
	})
	winnersWithout := 0
	for pid, w := range wonFlags {
		if w && !progs[pid].WonSplitter {
			winnersWithout++
		}
	}
	if winnersWithout > 0 {
		t.Errorf("%d winners without splitter win — impossible", winnersWithout)
	}
}

// TestClaim32LeafOccupancy estimates the Claim 3.2 bound: the probability
// that more than 4·log n processes land on a fixed block of log n leaves
// is at most 1/n² (we check it is rare; the exact constant needs larger n
// than a unit test should use).
func TestClaim32LeafOccupancy(t *testing.T) {
	const n = 64 // height 6, blocks of 6 leaves, threshold 24
	height := ceilLog2(n)
	threshold := 4 * height
	exceed := 0
	const trials = 300
	for seed := int64(0); seed < trials; seed++ {
		sys := sim.NewSystem(sim.Config{N: 1, Seed: seed})
		_ = sys
		// Balls-in-bins model from the Claim 3.2 proof: each process's
		// leaf is determined by an independent uniform bit string.
		rngBlock := make([]int, (1<<uint(height))/height+1)
		src := seed
		for ball := 0; ball < n; ball++ {
			src = src*6364136223846793005 + 1442695040888963407
			leaf := int(uint64(src)>>11) % (1 << uint(height))
			rngBlock[leaf/height]++
		}
		for _, c := range rngBlock {
			if c > threshold {
				exceed++
				break
			}
		}
	}
	if frac := float64(exceed) / trials; frac > 0.02 {
		t.Errorf("block overflow fraction %.3f, want ≤ ~1/n² (rare)", frac)
	}
}

// TestTreeFalloffExercisesPaths runs full contention on a short tree over
// many seeds; leaf collisions make processes fall off into elimination
// paths regularly, exercising the backup machinery end to end. (The
// randomized-splitter coins cannot be forced via sim.Config.CoinFunc here:
// a global override also freezes the 2-process elections' tie-break coins
// and livelocks them — the per-fiber coin streams exist for a reason.)
func TestTreeFalloffExercisesPaths(t *testing.T) {
	const n, k = 8, 8
	touchedPaths := false
	for seed := int64(0); seed < 60; seed++ {
		sys := sim.NewSystem(sim.Config{N: k, Seed: seed})
		r := NewSpaceEfficient(sys, n)
		won := make([]bool, k)
		res := sys.Run(sim.NewLockstep(), func(h shm.Handle) {
			won[h.ID()] = r.Elect(h)
		})
		for pid, ok := range res.Finished {
			if !ok {
				t.Fatalf("seed %d: process %d unfinished", seed, pid)
			}
		}
		if w := winners(won); w != 1 {
			t.Fatalf("seed %d: %d winners", seed, w)
		}
		if r.BackupFellOff() {
			t.Fatalf("seed %d: backup path overflowed", seed)
		}
		touchedPaths = touchedPaths || pathsTouched(sys, r)
	}
	if !touchedPaths {
		t.Error("no execution ever used an elimination path; test is vacuous")
	}
}

// pathsTouched reports whether any elimination-path register was written.
// Allocation order in NewSpaceEfficient is tree, paths, backup, top; the
// tree occupies 6 registers per node and the top election the final 2, so
// any write in between means some process fell off a leaf.
func pathsTouched(sys *sim.System, r *SpaceEfficient) bool {
	treeRegs := (len(r.tree.nodes) - 1) * 6
	for reg := treeRegs; reg < sys.RegisterCount()-2; reg++ {
		if sys.LastWriter(reg) >= 0 {
			return true
		}
	}
	return false
}
