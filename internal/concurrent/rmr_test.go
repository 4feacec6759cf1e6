// RMR accounting on the real-memory backend: unit tests for the CC/DSM
// charging rules and the recycling property test — an object recycled by
// Space.Reset must report the same outcomes, step and RMR counts and
// coin use as a fresh one for the same seeds, over every inner elector,
// and an abortable entry with no abort set the same as the plain one.
package concurrent_test

import (
	"testing"

	"repro/internal/agtv"
	"repro/internal/combiner"
	"repro/internal/concurrent"
	"repro/internal/core"
	"repro/internal/ratrace"
	"repro/internal/shm"
	"repro/internal/tas"
)

func acctSpace(t *testing.T) *concurrent.Space {
	t.Helper()
	s := concurrent.NewSpaceConfig(concurrent.Config{CountRMRs: true})
	if !s.CountsRMRs() {
		t.Fatal("accounting space reports CountsRMRs() == false")
	}
	return s
}

func acctReg(t *testing.T, s *concurrent.Space, init shm.Value) *concurrent.Register {
	t.Helper()
	r, ok := s.NewRegister(init).(*concurrent.Register)
	if !ok {
		t.Fatal("concurrent space allocated a non-concurrent register")
	}
	return r
}

// TestRMRDisabledStaysZero: a default space never charges, whatever the
// access pattern.
func TestRMRDisabledStaysZero(t *testing.T) {
	s := concurrent.NewSpace()
	if s.CountsRMRs() {
		t.Fatal("default space reports CountsRMRs() == true")
	}
	r := acctReg(t, s, 0)
	a, b := concurrent.NewHandle(0, 1), concurrent.NewHandle(1, 2)
	for i := 0; i < 10; i++ {
		a.WriteReg(r, shm.Value(i))
		b.ReadReg(r)
		b.WriteReg(r, shm.Value(i))
	}
	if a.CCRMRs() != 0 || a.DSMRMRs() != 0 || b.CCRMRs() != 0 || b.DSMRMRs() != 0 {
		t.Fatalf("disabled accounting charged: a=(%d,%d) b=(%d,%d)",
			a.CCRMRs(), a.DSMRMRs(), b.CCRMRs(), b.DSMRMRs())
	}
	if a.Steps() != 10 || b.Steps() != 20 {
		t.Fatalf("steps miscounted: a=%d b=%d", a.Steps(), b.Steps())
	}
}

// TestRMRLocalSpinFree is the CC model's defining property: re-reading a
// line nobody wrote in between costs one RMR for the initial cache fill,
// then nothing — a spin loop generates no coherence traffic.
func TestRMRLocalSpinFree(t *testing.T) {
	s := acctSpace(t)
	r := acctReg(t, s, 0)
	w, spinner := concurrent.NewHandle(0, 1), concurrent.NewHandle(1, 2)

	w.WriteReg(r, 7)
	spinner.ReadReg(r)
	if got := spinner.CCRMRs(); got != 1 {
		t.Fatalf("first read after remote write: %d CC RMRs, want 1", got)
	}
	for i := 0; i < 100; i++ {
		spinner.ReadReg(r)
	}
	if got := spinner.CCRMRs(); got != 1 {
		t.Fatalf("spin on unchanged line charged: %d CC RMRs, want 1", got)
	}

	// A new remote write invalidates the cached copy: exactly one more.
	w.WriteReg(r, 8)
	for i := 0; i < 100; i++ {
		spinner.ReadReg(r)
	}
	if got := spinner.CCRMRs(); got != 2 {
		t.Fatalf("spin after invalidation: %d CC RMRs, want 2", got)
	}
}

// TestRMRNeverWrittenReadsFree: CC charges no coherence traffic for lines
// no process ever wrote.
func TestRMRNeverWrittenReadsFree(t *testing.T) {
	s := acctSpace(t)
	r := acctReg(t, s, 42)
	h := concurrent.NewHandle(3, 1)
	for i := 0; i < 10; i++ {
		h.ReadReg(r)
	}
	if got := h.CCRMRs(); got != 0 {
		t.Fatalf("reads of a never-written line charged %d CC RMRs", got)
	}
}

// TestRMRWriteExclusivity: repeated writes by the line's exclusive owner
// are local; a concurrent reader breaks exclusivity and the next write
// pays to invalidate the sharer.
func TestRMRWriteExclusivity(t *testing.T) {
	s := acctSpace(t)
	r := acctReg(t, s, 0)
	a, b := concurrent.NewHandle(0, 1), concurrent.NewHandle(1, 2)

	a.WriteReg(r, 1) // claims the line
	a.WriteReg(r, 2) // exclusive: free
	a.WriteReg(r, 3)
	if got := a.CCRMRs(); got != 1 {
		t.Fatalf("exclusive rewrites charged: %d CC RMRs, want 1", got)
	}
	b.ReadReg(r) // b now shares the line
	a.WriteReg(r, 4)
	if got := a.CCRMRs(); got != 2 {
		t.Fatalf("write to shared line: %d CC RMRs, want 2", got)
	}
	a.WriteReg(r, 5) // exclusive again
	if got := a.CCRMRs(); got != 2 {
		t.Fatalf("re-established exclusivity charged: %d CC RMRs, want 2", got)
	}
}

// TestRMRDSMChargesEveryRemoteAccess: in the DSM model the first accessor
// owns the line; everyone else pays per access, spins included.
func TestRMRDSMChargesEveryRemoteAccess(t *testing.T) {
	s := acctSpace(t)
	r := acctReg(t, s, 0)
	owner, remote := concurrent.NewHandle(0, 1), concurrent.NewHandle(1, 2)

	owner.ReadReg(r) // claims the home segment
	for i := 0; i < 5; i++ {
		owner.ReadReg(r)
		owner.WriteReg(r, shm.Value(i))
	}
	if got := owner.DSMRMRs(); got != 0 {
		t.Fatalf("home-segment accesses charged %d DSM RMRs", got)
	}
	for i := 0; i < 5; i++ {
		remote.ReadReg(r)
	}
	remote.WriteReg(r, 9)
	if got := remote.DSMRMRs(); got != 6 {
		t.Fatalf("remote accesses charged %d DSM RMRs, want 6 (no caching in DSM)", got)
	}
}

// TestRMRAccountingSurvivesReset: Space.Reset clears ownership (a fresh
// round's first accessor re-claims the line) and the version bump keeps a
// pre-reset cached copy from masking a post-reset invalidation.
func TestRMRAccountingSurvivesReset(t *testing.T) {
	s := acctSpace(t)
	r := acctReg(t, s, 0)
	s.Seal()
	a, b := concurrent.NewHandle(0, 1), concurrent.NewHandle(1, 2)

	a.WriteReg(r, 1)
	b.ReadReg(r) // b: 1 CC (fill), 1 DSM (a owns the line)
	s.Reset()

	// New round, b arrives first: ownership must have been released.
	b.ReadReg(r)
	if got := b.DSMRMRs(); got != 1 {
		t.Fatalf("post-reset first access charged %d DSM RMRs, want 1 (ownership not released)", got)
	}
	// Nobody has written since the reset: the line is coherence-clean.
	if got := b.CCRMRs(); got != 1 {
		t.Fatalf("post-reset read of clean line: %d CC RMRs, want 1", got)
	}
	// a writes; b's stale cached version must not mask the invalidation.
	a.WriteReg(r, 2)
	b.ReadReg(r)
	if got := b.CCRMRs(); got != 2 {
		t.Fatalf("post-reset invalidated read: %d CC RMRs, want 2", got)
	}
}

// --- Recycled objects cost what fresh ones do --------------------------------

// electorBuilder allocates a leader election for n processes on s.
type electorBuilder func(s shm.Space, n int) tas.LeaderElector

// entries are an object's two entries, each reporting a win: abortable,
// the one an arena slot runs (called with no abort set), and plain.
type entries struct {
	abortable, plain func(h shm.Handle) bool
}

// object names a builder of one object for n processes on s.
type object struct {
	name  string
	build func(s shm.Space, n int) entries
}

func doorwayOver(inner electorBuilder) electorBuilder {
	return func(s shm.Space, n int) tas.LeaderElector { return tas.NewFastPath(s, inner(s, n)) }
}

func fastPathOver(inner electorBuilder) object {
	return object{"fastpath", func(s shm.Space, n int) entries {
		f := tas.NewFastPath(s, inner(s, n))
		return entries{
			abortable: func(h shm.Handle) bool { won, _ := f.ElectAbortable(h); return won },
			plain:     f.Elect,
		}
	}}
}

func tasOver(le electorBuilder) object {
	return object{"tas", func(s shm.Space, n int) entries {
		tt := tas.New(s, le(s, n))
		return entries{
			abortable: func(h shm.Handle) bool { v, _ := tt.TASAbortable(h); return v == 0 },
			plain:     func(h shm.Handle) bool { return tt.TAS(h) == 0 },
		}
	}}
}

// overDoorway is FastPath over inner, and TAS over that doorway.
func overDoorway(inner electorBuilder) []object {
	return []object{fastPathOver(inner), tasOver(doorwayOver(inner))}
}

// The inner electors an arena slot's doorway can front.
var (
	logStar         electorBuilder = func(s shm.Space, n int) tas.LeaderElector { return core.NewLogStar(s, n) }
	sifting         electorBuilder = func(s shm.Space, n int) tas.LeaderElector { return core.NewSifting(s, n) }
	adaptiveSifting electorBuilder = func(s shm.Space, n int) tas.LeaderElector { return core.NewAdaptiveSifting(s, n) }
	agtvTournament  electorBuilder = func(s shm.Space, n int) tas.LeaderElector { return agtv.New(s, n) }
	ratRace         electorBuilder = func(s shm.Space, n int) tas.LeaderElector { return ratrace.NewSpaceEfficient(s, n) }
	combined        electorBuilder = func(s shm.Space, n int) tas.LeaderElector {
		return combiner.New(s, ratrace.NewSpaceEfficient(s, n), core.NewLogStar(s, n))
	}
)

// doorwayCases are the objects an arena slot can hold:
//
//   - FastPath over each inner elector, and TAS over that doorway;
//   - "fastpath-logstar" and "tas-fastpath": the doorway over log*, on
//     its own and under TAS, with the plain entry also kept on one space
//     that Space.Reset recycles between rounds;
//   - "tas-ratrace": TAS straight over RatRace, with no doorway, whose
//     abortable entry falls back to the plain TAS.
var doorwayCases = []struct {
	name          string
	recycledPlain bool
	objects       []object
}{
	{"logstar", false, overDoorway(logStar)},
	{"sifting", false, overDoorway(sifting)},
	{"adaptive-sifting", false, overDoorway(adaptiveSifting)},
	{"agtv", false, overDoorway(agtvTournament)},
	{"ratrace", false, overDoorway(ratRace)},
	{"combined", false, overDoorway(combined)},
	{"fastpath-logstar", true, []object{fastPathOver(logStar)}},
	{"tas-fastpath", true, []object{tasOver(doorwayOver(logStar))}},
	{"tas-ratrace", false, []object{tasOver(ratRace)}},
}

// handleCosts is one handle's observable outcome: whether it won, its
// steps and RMRs in both models, and the next draw of its coin stream —
// equal draws show the stream ended in the same state.
type handleCosts struct {
	won            bool
	steps, cc, dsm int
	next           int
}

// sequentialCosts runs k handles one after another through an object,
// each through the abortable entry or each through the plain one, in one
// round per seed. Each round gets the object on a fresh RMR-counting
// space, or, if recycled, the object stays on one space and Space.Reset
// returns it to its initial state before the next round.
func sequentialCosts(build func(s shm.Space, n int) entries, k int, seeds []int64, recycled, abortable bool) [][]handleCosts {
	var s *concurrent.Space
	var e entries
	rounds := make([][]handleCosts, len(seeds))
	for r, seed := range seeds {
		if s != nil && recycled {
			s.Reset()
		} else {
			s = concurrent.NewSpaceConfig(concurrent.Config{CountRMRs: true})
			e = build(s, k)
			s.Seal()
		}
		elect := e.plain
		if abortable {
			elect = e.abortable
		}
		costs := make([]handleCosts, k)
		for id := range costs {
			h := concurrent.NewHandle(id, seed)
			won := elect(h)
			costs[id] = handleCosts{won: won, steps: h.Steps(), cc: h.CCRMRs(), dsm: h.DSMRMRs(), next: h.Intn(1 << 30)}
		}
		rounds[r] = costs
	}
	return rounds
}

// TestRecycledMatchesFreshCostsAcrossZoo pins recycling to construction:
// every object in the zoo, kept on one space that Space.Reset recycles
// between rounds as an arena slot is, must cost exactly what a fresh
// object does through the abortable entry. With no abort set, that
// entry must also cost exactly what the plain entry (FastPath.Elect,
// TAS.TAS) does, on a fresh object or, in the recycledPlain cases, a
// recycled one. In every case 16 handles run one after another on an
// RMR-counting space, for 5 seeds, and every handle must see the same
// outcome, steps, CC and DSM RMRs and coin-stream state on all three,
// with exactly one winner per round. Sequential handles make the
// executions deterministic, and the charging rules are exact for them.
func TestRecycledMatchesFreshCostsAcrossZoo(t *testing.T) {
	const k = 16
	seeds := []int64{1, 2, 3, 4, 5}
	for _, c := range doorwayCases {
		t.Run(c.name, func(t *testing.T) {
			for _, obj := range c.objects {
				recycled := sequentialCosts(obj.build, k, seeds, true, true)
				fresh := sequentialCosts(obj.build, k, seeds, false, true)
				plain := sequentialCosts(obj.build, k, seeds, c.recycledPlain, false)
				for r, seed := range seeds {
					winners := 0
					for id := range recycled[r] {
						if recycled[r][id] != fresh[r][id] {
							t.Fatalf("%s seed %d handle %d: recycled %+v != fresh %+v",
								obj.name, seed, id, recycled[r][id], fresh[r][id])
						}
						if recycled[r][id] != plain[r][id] {
							t.Fatalf("%s seed %d handle %d: abortable %+v != plain %+v",
								obj.name, seed, id, recycled[r][id], plain[r][id])
						}
						if recycled[r][id].won {
							winners++
						}
					}
					if winners != 1 {
						t.Fatalf("%s seed %d: %d winners, want 1", obj.name, seed, winners)
					}
				}
			}
		})
	}
}
