package sim

import (
	"strings"
	"testing"

	"repro/internal/concurrent"
	"repro/internal/core"
	"repro/internal/ratrace"
	"repro/internal/shm"
	"repro/internal/tas"
)

// TestGoldenTraceUnchangedByRMRAccounting: turning the RMR counters on
// must not perturb the engine-v2 seed→schedule mapping. Both runs must
// reproduce the golden trace byte for byte — accounting is bookkeeping
// layered on Step, never an input to scheduling, values, or coins. With
// accounting off, every RMR count in the Result reads zero.
func TestGoldenTraceUnchangedByRMRAccounting(t *testing.T) {
	for _, count := range []bool{false, true} {
		var trace strings.Builder
		cfg, _ := goldenConfig(&trace)
		cfg.CountRMRs = count
		sys := NewSystem(cfg)
		le := core.NewLogStar(sys, 16)
		res := sys.Run(NewLockstep(), func(h shm.Handle) { le.Elect(h) })
		if res.TotalSteps != 26 {
			t.Errorf("CountRMRs=%v: %d steps, want 26", count, res.TotalSteps)
		}
		if !count {
			for pid := range res.CCRMRs {
				if res.CCRMRs[pid] != 0 || res.DSMRMRs[pid] != 0 {
					t.Errorf("p%d charged (%d CC, %d DSM) with accounting off", pid, res.CCRMRs[pid], res.DSMRMRs[pid])
				}
			}
			if res.TotalCCRMRs != 0 || res.TotalDSMRMRs != 0 || res.MaxCCRMRs != 0 || res.MaxDSMRMRs != 0 {
				t.Errorf("Result carries RMR aggregates with accounting off: %+v", res)
			}
		}
		if got := trace.String(); got != goldenTrace {
			t.Errorf("CountRMRs=%v: trace diverges from the golden recording:\n--- got ---\n%s--- want ---\n%s",
				count, got, goldenTrace)
		}
	}
}

// TestRealCoinsUnchangedByRMRAccounting covers the same property on the
// real coin streams: identical schedule, final registers, and step counts
// with counters on and off, including across a Reset.
func TestRealCoinsUnchangedByRMRAccounting(t *testing.T) {
	run := func(count bool) ([]int, []shm.Value, int) {
		var sched []int
		sys := NewSystem(Config{N: 6, Seed: 11, Reuse: true, CountRMRs: count, StepHook: recordSchedule(&sched)})
		defer sys.Release()
		regs := shm.NewRegisterArray(sys, 5, 0)
		body := func(h shm.Handle) {
			for i := 0; i < 6; i++ {
				slot := h.Intn(len(regs))
				v := h.Read(regs[slot])
				if h.Coin(0.5) {
					h.Write(regs[slot], v+shm.Value(h.ID()+1))
				}
			}
		}
		sys.Run(NewRandomOblivious(3), body)
		sys.Reset(11)
		sched = sched[:0]
		res := sys.Run(NewRandomOblivious(3), body)
		vals := make([]shm.Value, len(regs))
		for i := range regs {
			vals[i] = sys.Value(regs[i].RegisterID())
		}
		return sched, vals, res.TotalSteps
	}
	sOff, vOff, stepsOff := run(false)
	sOn, vOn, stepsOn := run(true)
	if stepsOff != stepsOn {
		t.Fatalf("step totals diverge: %d off vs %d on", stepsOff, stepsOn)
	}
	for i := range sOff {
		if sOff[i] != sOn[i] {
			t.Fatalf("schedules diverge at step %d: %d vs %d", i, sOff[i], sOn[i])
		}
	}
	for i := range vOff {
		if vOff[i] != vOn[i] {
			t.Fatalf("final register %d differs: %d vs %d", i, vOff[i], vOn[i])
		}
	}
}

// TestBackendsChargeAlike is the differential test of the two backends:
// every step of a simulated execution, recorded from the StepHook with
// RMR accounting on, is replayed on a counting concurrent.Space through
// ReadReg and WriteReg, and each process's steps, CC RMRs and DSM RMRs
// must agree in every run. The objects are TAS over the log* doorway,
// space-efficient RatRace and the sifting chain, at k = 2, 5 and 16,
// under random-oblivious and lockstep. The replay keeps one handle per
// pid across runs and both sides are Reset between runs, so a cache
// entry or a line that outlives its round shows too. Result's maxima and
// totals are checked against its per-process entries.
func TestBackendsChargeAlike(t *testing.T) {
	objects := []struct {
		name  string
		build func(s shm.Space, n int) func(h shm.Handle)
	}{
		{"tas-logstar-doorway", func(s shm.Space, n int) func(h shm.Handle) {
			tt := tas.New(s, tas.NewFastPath(s, core.NewLogStar(s, n)))
			return func(h shm.Handle) { tt.TAS(h) }
		}},
		{"ratrace-se", func(s shm.Space, n int) func(h shm.Handle) {
			le := ratrace.NewSpaceEfficient(s, n)
			return func(h shm.Handle) { le.Elect(h) }
		}},
		{"sifting", func(s shm.Space, n int) func(h shm.Handle) {
			le := core.NewSifting(s, n)
			return func(h shm.Handle) { le.Elect(h) }
		}},
	}
	adversaries := []struct {
		name string
		new  func(run int) Adversary
	}{
		{"random-oblivious", func(run int) Adversary { return NewRandomOblivious(int64(run)) }},
		{"lockstep", func(int) Adversary { return NewLockstep() }},
	}
	type costs struct{ steps, cc, dsm int }
	const runs = 30
	var total costs
	for _, obj := range objects {
		for _, k := range []int{2, 5, 16} {
			for _, adv := range adversaries {
				var trace []StepEvent
				sys := NewSystem(Config{N: k, Seed: 1, Reuse: true, CountRMRs: true,
					StepHook: func(ev StepEvent) { trace = append(trace, ev) }})
				body := obj.build(sys, k)
				space := concurrent.NewSpaceConfig(concurrent.Config{CountRMRs: true})
				regs := make([]*concurrent.Register, sys.RegisterCount())
				for i := range regs {
					regs[i] = space.NewRegister(sys.Value(i)).(*concurrent.Register)
				}
				space.Seal()
				handles := make([]*concurrent.Handle, k)
				for pid := range handles {
					handles[pid] = concurrent.NewHandle(pid, 0)
				}
				for run := range runs {
					if run > 0 {
						sys.Reset(int64(run + 1))
						space.Reset()
					}
					trace = trace[:0]
					res := sys.Run(adv.new(run), body)
					before := make([]costs, k)
					for pid, h := range handles {
						before[pid] = costs{h.Steps(), h.CCRMRs(), h.DSMRMRs()}
					}
					for _, ev := range trace {
						h, r := handles[ev.PID], regs[ev.Reg]
						if ev.Kind == OpWrite {
							h.WriteReg(r, ev.Val)
						} else {
							h.ReadReg(r)
						}
					}
					var maxima, sums costs
					for pid, h := range handles {
						got := costs{h.Steps() - before[pid].steps, h.CCRMRs() - before[pid].cc, h.DSMRMRs() - before[pid].dsm}
						want := costs{res.Steps[pid], res.CCRMRs[pid], res.DSMRMRs[pid]}
						if got != want {
							t.Fatalf("%s k=%d %s run %d p%d: replay charged (steps, CC, DSM) = %v, simulator %v",
								obj.name, k, adv.name, run, pid, got, want)
						}
						maxima = costs{max(maxima.steps, want.steps), max(maxima.cc, want.cc), max(maxima.dsm, want.dsm)}
						sums = costs{sums.steps + want.steps, sums.cc + want.cc, sums.dsm + want.dsm}
					}
					if res.MaxSteps != maxima.steps || res.MaxCCRMRs != maxima.cc || res.MaxDSMRMRs != maxima.dsm {
						t.Fatalf("%s k=%d %s run %d: Result maxima (%d, %d, %d), per-process entries give %v",
							obj.name, k, adv.name, run, res.MaxSteps, res.MaxCCRMRs, res.MaxDSMRMRs, maxima)
					}
					if res.TotalSteps != sums.steps || res.TotalCCRMRs != sums.cc || res.TotalDSMRMRs != sums.dsm {
						t.Fatalf("%s k=%d %s run %d: Result totals (%d, %d, %d), per-process entries give %v",
							obj.name, k, adv.name, run, res.TotalSteps, res.TotalCCRMRs, res.TotalDSMRMRs, sums)
					}
					total = costs{total.steps + sums.steps, total.cc + sums.cc, total.dsm + sums.dsm}
				}
				sys.Release()
			}
		}
	}
	t.Logf("replayed %d steps, %d CC and %d DSM RMRs", total.steps, total.cc, total.dsm)
}
