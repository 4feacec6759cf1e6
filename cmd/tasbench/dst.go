package main

import (
	"fmt"
	"time"

	"repro/internal/dst"
	"repro/internal/dstrun"
)

// dst mode drives the deterministic whole-service simulation
// (internal/dstrun) over a seed corpus: tasd plus a fleet of clients, a
// chaos actor and a wire-frame fuzzer under one seeded virtual clock.
// The first seed is run twice and byte-compared — the replay guarantee
// the rest of the corpus relies on. Every failing seed is printed as a
// ready-to-run replay command line, and any failure exits nonzero.

type dstConfig struct {
	seeds    int    // corpus size
	base     uint64 // first seed; the corpus is base, base+1, ...
	scenario string // one scenario name, or "all" to rotate
	ops      int    // per-client operations (0 = dstrun default)
	verbose  bool   // one line per seed instead of a summary
}

// faultEvery spaces the seeds that run under dstFaults: corpus indices
// 3, 7, 11, ...
const faultEvery = 4

// dstFaults is the byte-level fault mix applied to every faultEvery-th
// seed, so the corpus covers both the fault-free fabric (where the strict
// expectations assert) and a lossy one (where only the unconditional
// invariants can).
var dstFaults = dst.Faults{
	DelayMin:     20 * time.Microsecond,
	DelayMax:     800 * time.Microsecond,
	ConnectDelay: 100 * time.Microsecond,
	DropProb:     0.02,
	DupProb:      0.02,
	CorruptProb:  0.02,
	ResetProb:    0.005,
}

// run returns the configuration of corpus index i.
func (cfg dstConfig) run(i int) dstrun.Config {
	sc := dstrun.Scenario(cfg.scenario)
	if cfg.scenario == "" || cfg.scenario == "all" {
		sc = dstrun.Scenarios[i%len(dstrun.Scenarios)]
	}
	rc := dstrun.Config{Seed: cfg.base + uint64(i), Scenario: sc, Ops: cfg.ops}
	if i%faultEvery == faultEvery-1 {
		rc.Faults = dstFaults
	}
	return rc
}

// replay returns the command line whose corpus ends with the run at index
// i: that seed alone for a fault-free index, and for a faulted one the
// faultEvery seeds that put it back at a faulted index.
func (cfg dstConfig) replay(i int) string {
	rc := cfg.run(i)
	seeds := 1
	if rc.Faults != (dst.Faults{}) {
		seeds = faultEvery
	}
	return fmt.Sprintf("tasbench -mode=dst -dstseeds %d -seed %d -dstscenario %s -dstops %d",
		seeds, int64(rc.Seed)-int64(seeds-1), rc.Scenario, cfg.ops)
}

func runDST(cfg dstConfig) error {
	if cfg.seeds <= 0 {
		return fmt.Errorf("dst: -dstseeds must be positive, got %d", cfg.seeds)
	}
	start := time.Now()
	failed := 0
	for i := 0; i < cfg.seeds; i++ {
		rc := cfg.run(i)
		seed, sc := rc.Seed, rc.Scenario
		rep, err := dstrun.Run(rc)
		if err != nil {
			return fmt.Errorf("dst: setup failed on seed %#x: %v", seed, err)
		}
		if i == 0 {
			// Replay check: the same seed must reproduce the identical
			// report, trace hash included.
			rep2, err := dstrun.Run(rc)
			if err != nil {
				return fmt.Errorf("dst: replay setup failed on seed %#x: %v", seed, err)
			}
			if a, b := fmt.Sprintf("%+v", rep), fmt.Sprintf("%+v", rep2); a != b {
				fmt.Printf("REPLAY DIVERGED on seed %#x scenario %s:\n  run1: %s\n  run2: %s\n", seed, sc, a, b)
				failed++
			}
		}
		if rep.Failed() {
			failed++
			fmt.Printf("FAIL seed %#x scenario %-5s  violations=%d errors=%q\n", seed, sc, rep.Violations, rep.Errors)
			fmt.Printf("  replay: %s\n", cfg.replay(i))
		} else if cfg.verbose {
			fmt.Printf("ok   seed %#x scenario %-5s  events=%-7d hash=%#016x virtual=%-10v acq=%d rel=%d ext=%d elect=%d fuzz=%d exp=%d evict=%d abort=%d"+
				" rec=%d busy=%d fenced=%d redial=%d cancel=%d hangup=%d slots=%d cancelmax=%v shed=%d dlexp=%d slowevict=%d qhw=%d goodput=%d\n",
				seed, sc, rep.Events, rep.TraceHash, rep.Virtual,
				rep.Acquires, rep.Releases, rep.Extends, rep.Elections, rep.FuzzFrames,
				rep.Expiries, rep.Evictions, rep.Aborts,
				rep.Recovered, rep.Busy, rep.Fenced, rep.Redials, rep.Cancels, rep.Hangups,
				rep.SlotsOutstanding, rep.CancelLatencyMax, rep.Shed, rep.DeadlineExpired,
				rep.SlowClientEvictions, rep.QueueDepthHighWater, rep.Goodput)
		}
	}
	fmt.Printf("dst: %d/%d seeds passed (base %#x, %v, replay check on first seed)\n",
		cfg.seeds-failed, cfg.seeds, cfg.base, time.Since(start).Round(time.Millisecond))
	if failed > 0 {
		return fmt.Errorf("dst: %d seed(s) failed — replay with the printed command lines", failed)
	}
	return nil
}
