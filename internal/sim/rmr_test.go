package sim

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/shm"
)

// TestGoldenTraceUnchangedByRMRAccounting is the satellite regression
// test: turning the RMR counters on must not perturb the engine-v2
// seed→schedule mapping. Both runs must reproduce the golden trace byte
// for byte — accounting is bookkeeping layered on Step, never an input to
// scheduling, values, or coins.
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

// TestRMRChargingOnScriptedSchedule pins the charging rules on an exactly
// known interleaving: p0 writes a register twice, p1 reads it three times,
// scheduled write–read–read–write–read. Expected charges follow the CC and
// DSM rules step by step (see the chargeRMRs comment).
func TestRMRChargingOnScriptedSchedule(t *testing.T) {
	sys := NewSystem(Config{N: 2, Seed: 1, CountRMRs: true})
	r := sys.NewRegister(0)
	body := func(h shm.Handle) {
		if h.ID() == 0 {
			h.Write(r, 1)
			h.Write(r, 2)
		} else {
			h.Read(r)
			h.Read(r)
			h.Read(r)
		}
	}
	res := sys.Run(NewFixedSchedule([]int{0, 1, 1, 0, 1}), body)
	if res.TotalSteps != 5 {
		t.Fatalf("scripted run took %d steps, want 5", res.TotalSteps)
	}
	// p0: first write claims an unowned line (+1 CC), second write hits a
	// line p1 shares (+1 CC); p0 owns the DSM home (first accessor).
	if got := sys.CCRMRsOf(0); got != 2 {
		t.Errorf("p0 CC RMRs = %d, want 2", got)
	}
	if got := sys.DSMRMRsOf(0); got != 0 {
		t.Errorf("p0 DSM RMRs = %d, want 0", got)
	}
	// p1: read 1 fills the cache (+1 CC), read 2 spins on the unchanged
	// line (free), read 3 follows p0's second write (+1 CC). Every read is
	// remote in DSM.
	if got := sys.CCRMRsOf(1); got != 2 {
		t.Errorf("p1 CC RMRs = %d, want 2", got)
	}
	if got := sys.DSMRMRsOf(1); got != 3 {
		t.Errorf("p1 DSM RMRs = %d, want 3", got)
	}
	// The Result aggregates mirror the per-process accessors.
	if res.TotalCCRMRs != 4 || res.MaxCCRMRs != 2 {
		t.Errorf("CC aggregate (total %d, max %d), want (4, 2)", res.TotalCCRMRs, res.MaxCCRMRs)
	}
	if res.TotalDSMRMRs != 3 || res.MaxDSMRMRs != 3 {
		t.Errorf("DSM aggregate (total %d, max %d), want (3, 3)", res.TotalDSMRMRs, res.MaxDSMRMRs)
	}
}

// TestRMRResetClearsAccounting: a Reset-recycled System must charge a
// fresh round exactly like a fresh System — counters cleared, DSM homes
// released, and pre-reset CC cache entries stranded by the version bump.
func TestRMRResetClearsAccounting(t *testing.T) {
	sys := NewSystem(Config{N: 2, Seed: 1, Reuse: true, CountRMRs: true})
	defer sys.Release()
	r := sys.NewRegister(0)
	body := func(h shm.Handle) {
		if h.ID() == 0 {
			h.Write(r, 1)
		} else {
			h.Read(r)
			h.Read(r)
		}
	}
	sched := []int{0, 1, 1}
	first := sys.Run(NewFixedSchedule(sched), body)
	sys.Reset(1)
	second := sys.Run(NewFixedSchedule(sched), body)
	if first.TotalCCRMRs != second.TotalCCRMRs || first.TotalDSMRMRs != second.TotalDSMRMRs {
		t.Fatalf("recycled round charged (%d CC, %d DSM), fresh charged (%d CC, %d DSM)",
			second.TotalCCRMRs, second.TotalDSMRMRs, first.TotalCCRMRs, first.TotalDSMRMRs)
	}
	if first.TotalCCRMRs != 2 { // p0 write claim + p1 cache fill
		t.Fatalf("expected 2 CC RMRs per round, got %d", first.TotalCCRMRs)
	}
}

// TestRMRDisabledStaysZero: without Config.CountRMRs every counter and
// aggregate reads zero.
func TestRMRDisabledStaysZero(t *testing.T) {
	sys := NewSystem(Config{N: 2, Seed: 1})
	r := sys.NewRegister(0)
	res := sys.Run(NewRoundRobin(), func(h shm.Handle) {
		h.Write(r, shm.Value(h.ID()))
		h.Read(r)
	})
	for pid := 0; pid < 2; pid++ {
		if sys.CCRMRsOf(pid) != 0 || sys.DSMRMRsOf(pid) != 0 {
			t.Fatalf("p%d charged (%d CC, %d DSM) with accounting disabled",
				pid, sys.CCRMRsOf(pid), sys.DSMRMRsOf(pid))
		}
	}
	if res.TotalCCRMRs != 0 || res.TotalDSMRMRs != 0 || res.MaxCCRMRs != 0 || res.MaxDSMRMRs != 0 {
		t.Fatalf("Result carries RMR aggregates with accounting disabled: %+v", res)
	}
}
