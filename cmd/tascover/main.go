// Command tascover runs the Section 5 covering adversary (the executable
// Ω(log n) space lower bound of Theorem 5.1) against a chosen leader
// election and reports the covering structure it constructs.
//
// The space bound holds for every coin fixing (Section 5.1), so -seed
// picks one fixing; distinct seeds explore distinct deterministic
// restrictions of the algorithm. Seeds map to coin streams via the
// engine v2 (splitmix64) seed mapping.
//
// Usage:
//
//	tascover [-n 64] [-seed 1] [-algo logstar|sifting|ratrace|agtv]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/agtv"
	"repro/internal/core"
	"repro/internal/lowerbound"
	"repro/internal/ratrace"
	"repro/internal/shm"
)

func main() {
	var (
		n    = flag.Int("n", 64, "number of processes (power of two recommended)")
		seed = flag.Int64("seed", 1, "coin-fixing seed")
		algo = flag.String("algo", "logstar", "algorithm: logstar, sifting, ratrace, agtv")
	)
	flag.Parse()
	if *n < 4 {
		fmt.Fprintf(os.Stderr, "tascover: -n %d: the construction needs at least 4 processes\n", *n)
		flag.Usage()
		os.Exit(1)
	}

	setup, ok := setups(*n)[*algo]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown algorithm %q\n", *algo)
		os.Exit(1)
	}
	res := lowerbound.RunCovering(*n, *seed, setup)
	_, bound := lowerbound.SpaceBound(*n)
	f := lowerbound.F(*n, *n-4)

	fmt.Printf("covering adversary vs %s, n=%d, seed=%d\n\n", *algo, *n, *seed)
	fmt.Printf("  rounds executed:         %d\n", res.Rounds)
	fmt.Printf("  surviving groups:        %d   (Lemma 5.4 bound f(n-4) = %d)\n", res.Groups, f[*n-4])
	fmt.Printf("  registers covered:       %d   (Theorem 5.1 bound log2(n)-1 = %d)\n", res.CoveredRegisters, bound)
	fmt.Printf("  max cover per register:  %d   (construction bound 4)\n", res.MaxCoverPerRegister)
	fmt.Printf("  algorithm registers:     %d   (%d touched by the construction)\n",
		res.TotalRegisters, res.TouchedRegisters)
	if len(res.Violations) > 0 {
		fmt.Printf("\nINVARIANT VIOLATIONS (%d):\n", len(res.Violations))
		for _, v := range res.Violations {
			fmt.Println("  -", v)
		}
		os.Exit(1)
	}
	fmt.Println("\nno invariant violations: the execution covers at least log2(n)-1 registers,")
	fmt.Println("matching the paper's space lower bound for nondeterministic solo-terminating TAS.")
}

func setups(n int) map[string]func(s shm.Space) func(shm.Handle) {
	return map[string]func(s shm.Space) func(shm.Handle){
		"logstar": func(s shm.Space) func(shm.Handle) {
			le := core.NewLogStar(s, n)
			return func(h shm.Handle) { le.Elect(h) }
		},
		"sifting": func(s shm.Space) func(shm.Handle) {
			le := core.NewSifting(s, n)
			return func(h shm.Handle) { le.Elect(h) }
		},
		"ratrace": func(s shm.Space) func(shm.Handle) {
			le := ratrace.NewSpaceEfficient(s, n)
			return func(h shm.Handle) { le.Elect(h) }
		},
		"agtv": func(s shm.Space) func(shm.Handle) {
			le := agtv.New(s, n)
			return func(h shm.Handle) { le.Elect(h) }
		},
	}
}
