// Command tastrace prints an annotated step-by-step execution trace of a
// leader election under a chosen adversary — a teaching and debugging aid
// for the simulator and the algorithms.
//
// Traces are deterministic in (seed, adversary, algorithm) under the
// engine v2 seed→schedule mapping (splitmix64 coin streams); traces
// recorded before the engine overhaul replay under the same flags but
// with different coin outcomes.
//
// Usage:
//
//	tastrace [-k 4] [-n 8] [-seed 1] [-algo logstar] [-adv roundrobin] [-max 200]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/agtv"
	"repro/internal/core"
	"repro/internal/ratrace"
	"repro/internal/shm"
	"repro/internal/sim"
)

func main() {
	var (
		k       = flag.Int("k", 4, "participating processes")
		n       = flag.Int("n", 8, "object capacity")
		seed    = flag.Int64("seed", 1, "coin seed")
		algo    = flag.String("algo", "logstar", "logstar, sifting, adaptive, ratrace, agtv")
		advName = flag.String("adv", "roundrobin", "roundrobin, random, lockstep, solofirst")
		maxStep = flag.Int("max", 200, "stop after this many steps")
	)
	flag.Parse()
	if *k < 1 || *k > *n {
		fmt.Fprintf(os.Stderr, "tastrace: -k %d -n %d: want 1 ≤ k ≤ n\n", *k, *n)
		flag.Usage()
		os.Exit(1)
	}

	steps := 0
	cfg := sim.Config{N: *k, Seed: *seed, StepHook: func(ev sim.StepEvent) {
		steps++
		fmt.Printf("%4d  p%-3d %-5s r%-4d = %d\n", ev.Time, ev.PID, ev.Kind, ev.Reg, ev.Val)
	}}
	sys := sim.NewSystem(cfg)

	var le interface {
		Elect(h shm.Handle) bool
	}
	switch *algo {
	case "logstar":
		le = core.NewLogStar(sys, *n)
	case "sifting":
		le = core.NewSifting(sys, *n)
	case "adaptive":
		le = core.NewAdaptiveSifting(sys, *n)
	case "ratrace":
		le = ratrace.NewSpaceEfficient(sys, *n)
	case "agtv":
		le = agtv.New(sys, *n)
	default:
		fmt.Fprintf(os.Stderr, "unknown algorithm %q\n", *algo)
		os.Exit(1)
	}

	var adv sim.Adversary
	switch *advName {
	case "roundrobin":
		adv = sim.NewRoundRobin()
	case "random":
		adv = sim.NewRandomOblivious(*seed + 1)
	case "lockstep":
		adv = sim.NewLockstep()
	case "solofirst":
		adv = sim.NewSoloFirst()
	default:
		fmt.Fprintf(os.Stderr, "unknown adversary %q\n", *advName)
		os.Exit(1)
	}

	fmt.Printf("trace: %s, k=%d, n=%d, adversary=%s, seed=%d\n", *algo, *k, *n, *advName, *seed)
	fmt.Printf("%4s  %-4s %-5s %-6s\n", "time", "proc", "op", "target")

	won := make([]bool, *k)
	limited := &sim.Func{Vis: sim.VisibilityAdaptive, Pick: func(v sim.View) int {
		if steps >= *maxStep {
			return -1
		}
		return adv.Next(v)
	}}
	res := sys.Run(limited, func(h shm.Handle) {
		won[h.ID()] = le.Elect(h)
	})

	fmt.Println()
	for pid := 0; pid < *k; pid++ {
		status := "lost"
		if won[pid] {
			status = "WON"
		}
		if !res.Finished[pid] {
			status = "cut off"
		}
		fmt.Printf("p%-3d %-8s %3d steps  %3d coins\n", pid, status, res.Steps[pid], sys.CoinsOf(pid))
	}
	fmt.Printf("\ntotal steps %d, registers %d, touched %d\n",
		res.TotalSteps, sys.RegisterCount(), sys.TouchedRegisters())
}
