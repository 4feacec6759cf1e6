package lowerbound

import (
	"fmt"
	"sort"

	"repro/internal/shm"
	"repro/internal/sim"
	"repro/internal/unionfind"
)

// CoveringResult summarizes one run of the executable covering adversary.
type CoveringResult struct {
	// N is the number of processes.
	N int
	// Rounds is the number of covering rounds executed (n − 4).
	Rounds int
	// Groups is the number of surviving groups m_{n−4}, each of whose
	// representative covers a register (Lemma 5.4 guarantees ≥ f(n−4)).
	Groups int
	// CoveredRegisters is the number of distinct registers covered by
	// the surviving representatives. Theorem 5.1 predicts at least
	// log₂ n − 1 for n a power of two.
	CoveredRegisters int
	// MaxCoverPerRegister is the largest number of representatives
	// covering one register (the lemma bounds it by 4 after n−4 rounds).
	MaxCoverPerRegister int
	// TotalRegisters is the algorithm's allocated register count.
	TotalRegisters int
	// TouchedRegisters is how many registers the construction's partial
	// executions actually read or wrote.
	TouchedRegisters int
	// Violations collects any departures from the construction's
	// invariants (none are expected for a correct leader election).
	Violations []string
}

// RunCovering executes the Lemma 5.4 covering construction against an
// arbitrary leader-election implementation. setup builds the algorithm's
// objects on the provided space and returns the per-process body; the
// random choices are fixed by seed (the space bound holds for every coin
// fixing, Section 5.1), making the algorithm deterministic and
// obstruction-free as in the proof.
//
// The construction maintains a partition of the processes into groups
// (merged whenever one process sees another: a read of a register the
// other process last wrote, observed from the simulator's StepHook), one
// covering representative per group, and schedules rounds so that after
// round k no register is covered by more than n−k representatives. After
// n−4 rounds every register is covered by at most 4 representatives, so
// the surviving Groups force at least Groups/4 distinct covered
// registers.
func RunCovering(n int, seed int64, setup func(s shm.Space) func(h shm.Handle)) CoveringResult {
	res := CoveringResult{N: n}
	uf := unionfind.New(n)
	var sys *sim.System
	sys = sim.NewSystem(sim.Config{N: n, Seed: seed, StepHook: func(ev sim.StepEvent) {
		if w := sys.LastWriter(ev.Reg); ev.Kind == sim.OpRead && w >= 0 {
			uf.Union(ev.PID, w)
		}
	}})
	body := setup(sys)
	sys.Start(body)
	defer sys.Close()
	res.TotalRegisters = sys.RegisterCount()

	// Round 0: run every process solo until it is poised to write.
	// Nothing has been written yet, so the runs are independent.
	reps := make(map[int]int, n) // group root → representative pid
	for pid := 0; pid < n; pid++ {
		if !runUntilPoisedToWrite(sys, pid, nil) {
			res.Violations = append(res.Violations,
				fmt.Sprintf("process %d finished before its first write", pid))
			continue
		}
		reps[uf.Find(pid)] = pid
	}

	rounds := n - 4
	if rounds < 0 {
		rounds = 0
	}
	res.Rounds = rounds
	for k := 0; k < rounds; k++ {
		coverCount := coverCounts(sys, reps)
		// R: registers covered by exactly n−k representatives.
		// R′: registers covered by exactly n−k−1 representatives.
		inR := map[int]bool{}
		inRPrime := map[int]bool{}
		for reg, c := range coverCount {
			switch c {
			case n - k:
				inR[reg] = true
			case n - k - 1:
				inRPrime[reg] = true
			}
		}
		if len(inR) == 0 {
			continue // α_{k+1} = α_k
		}
		// Pick one covering representative per register of R; their
		// groups merge into Q. Iterate in pid order for determinism.
		var chosen []int
		seen := map[int]bool{}
		for _, pid := range sortedReps(reps) {
			_, reg, ok := pendingWrite(sys, pid)
			if !ok {
				continue
			}
			if inR[reg] && !seen[reg] {
				seen[reg] = true
				chosen = append(chosen, uf.Find(pid))
			}
		}
		if len(chosen) == 0 {
			continue
		}
		// σ: each chosen representative performs its covering write,
		// obliterating the contents of every register in R.
		var members []int
		for _, root := range chosen {
			pid := reps[root]
			sys.Step(pid)
			members = append(members, uf.Members(pid)...)
		}
		// Merge the chosen groups into Q (the paper merges them when
		// they subsequently see each other; merging eagerly only
		// coarsens the partition, which weakens nothing).
		for _, root := range chosen[1:] {
			uf.Union(chosen[0], root)
			delete(reps, root)
		}
		delete(reps, chosen[0])

		// σ′/β′: run the members of Q until one is poised to write
		// outside R ∪ R′; it becomes the merged group's representative.
		outside := func(reg int) bool { return !inR[reg] && !inRPrime[reg] }
		newRep := -1
		for _, pid := range dedup(members) {
			if stopAtOutsideWrite(sys, pid, outside) {
				newRep = pid
				break
			}
		}
		if newRep < 0 {
			res.Violations = append(res.Violations, fmt.Sprintf(
				"round %d: no member of Q became poised to write outside R∪R' (Claim 5.3 violated)", k))
			continue
		}
		reps[uf.Find(newRep)] = newRep
		reps = canonicalize(uf, reps, &res)
	}

	// Tally the final covering.
	res.TouchedRegisters = sys.TouchedRegisters()
	final := coverCounts(sys, reps)
	res.Groups = len(reps)
	res.CoveredRegisters = len(final)
	for _, c := range final {
		if c > res.MaxCoverPerRegister {
			res.MaxCoverPerRegister = c
		}
	}
	return res
}

// runUntilPoisedToWrite steps pid while its pending operation is a read.
// It reports false if the process finished without covering a register.
func runUntilPoisedToWrite(sys *sim.System, pid int, outside func(int) bool) bool {
	for {
		kind, reg, _, ok := sys.Pending(pid)
		if !ok {
			return false
		}
		if kind == sim.OpWrite && (outside == nil || outside(reg)) {
			return true
		}
		sys.Step(pid)
	}
}

// stopAtOutsideWrite runs pid until it is poised to write a register for
// which outside returns true, reporting success; a finished process
// reports false.
func stopAtOutsideWrite(sys *sim.System, pid int, outside func(int) bool) bool {
	return runUntilPoisedToWrite(sys, pid, outside)
}

// pendingWrite returns pid's pending write target, if it has one.
func pendingWrite(sys *sim.System, pid int) (kind sim.OpKind, reg int, ok bool) {
	k, r, _, o := sys.Pending(pid)
	if !o || k != sim.OpWrite {
		return k, -1, false
	}
	return k, r, true
}

// coverCounts maps register id → number of representatives covering it.
func coverCounts(sys *sim.System, reps map[int]int) map[int]int {
	out := map[int]int{}
	for _, pid := range reps {
		if _, reg, ok := pendingWrite(sys, pid); ok {
			out[reg]++
		}
	}
	return out
}

// canonicalize rebuilds the representative map keyed by current group
// roots; if sees during the round merged previously distinct groups, the
// smallest-pid representative is kept for the merged group (a
// deterministic choice — map iteration order must not leak into the
// construction).
func canonicalize(uf *unionfind.UF, reps map[int]int, _ *CoveringResult) map[int]int {
	out := make(map[int]int, len(reps))
	for _, pid := range sortedReps(reps) {
		root := uf.Find(pid)
		if _, exists := out[root]; exists {
			continue
		}
		out[root] = pid
	}
	return out
}

// sortedReps returns the representative pids in increasing order.
func sortedReps(reps map[int]int) []int {
	out := make([]int, 0, len(reps))
	for _, pid := range reps {
		out = append(out, pid)
	}
	sort.Ints(out)
	return out
}

// dedup returns xs with duplicates removed, preserving order.
func dedup(xs []int) []int {
	seen := make(map[int]bool, len(xs))
	out := xs[:0:0]
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}
