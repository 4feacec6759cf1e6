// Command tasbench checks the reproduction's claims and, in its other
// modes, load-tests and simulates the tasd lock service.
//
// Usage:
//
//	tasbench [-mode=claims] [-trials N] [-seed S] [-quick]
//	tasbench -mode=net -addr host:port [-scenario pairs|churn|storm|disconnect|flood]
//	         [-clients C] [-locks L] [-duration D] [-ttl TTL] [-netfloor OPS]
//	tasbench -mode=hold -addr host:port [-ttl TTL] [-holdfor D]
//	tasbench -mode=dst [-dstseeds N] [-seed S] [-dstscenario all|mixed|...]
//	         [-dstops N] [-dstv]
//
// Claims mode (see claims.go) runs every theorem of Giakkoupis & Woelfel
// (PODC 2012) on the deterministic simulator, each under the adversary it
// names, and prints one table with a PASS or FAIL verdict per row. Net
// mode (see net.go) load-tests a running tasd lock daemon over TCP;
// dst mode (see dst.go) runs the deterministic whole-service simulation.
// In-process mutex and simulator throughput are measured by the benchmark
// under bench/ (bash bench/run.sh). Every mode exits 1 on a failure.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	var (
		mode   = flag.String("mode", "claims", "'claims' (the paper's theorems as a gated table), 'net' (load test of a running tasd), 'hold' (one-lock lease drill) or 'dst' (deterministic whole-service simulation over a seed corpus)")
		trials = flag.Int("trials", 100, "claims: Monte Carlo trials per sweep point")
		seed   = flag.Int64("seed", 1, "claims/dst: base random seed")
		quick  = flag.Bool("quick", false, "claims: smaller sweeps for a fast smoke run")

		addr     = flag.String("addr", "", "net/hold: address of the running tasd (required)")
		scenario = flag.String("scenario", "pairs", "net: 'pairs' (leased acquire/release), 'churn' (abandoned holds recovered by lease expiry), 'storm' (stale-token fencing storm), 'disconnect' (clients hang up mid-ACQUIRE; asserts abort + slot reclaim) or 'flood' (open-loop overload against the daemon's admission envelope; asserts shedding + goodput + bounds)")
		clients  = flag.Int("clients", 8, "net: concurrent client connections")
		nlocks   = flag.Int("locks", 4, "net: distinct named locks")
		duration = flag.Duration("duration", 2*time.Second, "net: load duration")
		ttl      = flag.Duration("ttl", 0, "net/hold: lease TTL attached to acquires (0 = no lease)")
		netFloor = flag.Float64("netfloor", 0, "net: fail below this many ops/sec (0 = no gate)")
		holdFor  = flag.Duration("holdfor", 0, "hold: how long to sit on the lock before releasing")

		dstSeeds    = flag.Int("dstseeds", 64, "dst: corpus size (seeds base, base+1, ...)")
		dstScenario = flag.String("dstscenario", "all", "dst: scenario ('mixed', 'locks', 'chaos', 'elect', 'fuzz', 'abortstorm', 'overload') or 'all' to rotate")
		dstOps      = flag.Int("dstops", 0, "dst: operations per client (0 = scenario default)")
		dstVerbose  = flag.Bool("dstv", false, "dst: print one line per seed")
	)
	flag.Parse()
	if (*mode == "net" || *mode == "hold") && *addr == "" {
		fatalf("tasbench: -mode=%s needs -addr, the address of a running tasd", *mode)
	}

	var err error
	switch *mode {
	case "claims":
		err = runClaims(os.Stdout, claimsConfig{seed: *seed, trials: *trials, quick: *quick}, claims())
	case "dst":
		err = runDST(dstConfig{
			seeds:    *dstSeeds,
			base:     uint64(*seed),
			scenario: *dstScenario,
			ops:      *dstOps,
			verbose:  *dstVerbose,
		})
	case "hold":
		err = runHold(*addr, *ttl, *holdFor)
	case "net":
		err = runNet(os.Stdout, netConfig{
			scenario: *scenario,
			clients:  *clients,
			locks:    *nlocks,
			duration: *duration,
			ttl:      *ttl,
			addr:     *addr,
			floor:    *netFloor,
		})
	default:
		err = fmt.Errorf("unknown -mode %q (want 'claims', 'net', 'hold' or 'dst')", *mode)
	}
	if err != nil {
		fatalf("tasbench: %v", err)
	}
}

// fatalf prints to stderr and exits non-zero; every mode's failures must
// fail CI.
func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
