// Command tasd is the TCP lock and leader-election daemon built on the
// repository's randomized test-and-set arena: named fenced locks
// (ACQUIRE/TRYACQUIRE/RELEASE, with lease TTLs and strictly monotone
// fencing tokens), named epoch'd leader elections
// (ELECT/ELECTEPOCH/ELECTRESET), and a STATS counter snapshot, served
// over the compact binary protocol of internal/wire (v2, with HELLO
// version negotiation — v1 clients keep working) to any number of
// tasclient connections.
//
// Usage:
//
//	tasd [-addr 127.0.0.1:7420] [-max-clients 64] [-algo combined]
//	     [-shards S] [-prealloc P] [-seed S] [-lease-sweep 5ms]
//	     [-max-idle 0]
//	     [-max-inflight 0] [-max-waiters 0] [-write-timeout 0]
//	     [-drain-timeout 10s] [-quiet]
//
// Every connected client owns one process slot of the arena, so the
// paper's per-process wait-freedom guarantees carry over per client. A
// client that hangs while holding a leased lock is expired within
// TTL + lease-sweep: waiters proceed on a force-installed round and the
// zombie's release answers FENCED. Under overload (protocol v3) the
// daemon degrades gracefully instead of queueing without bound:
// -max-inflight caps blocked ACQUIREs server-wide and -max-waiters caps
// them per lock — excess requests are shed with a BUSY answer carrying
// a retry-after hint — while -write-timeout evicts clients that stop
// draining their responses. SIGTERM or SIGINT starts a graceful
// drain: the listener closes, in-flight request batches finish, held
// locks of departing clients are recovered, and the process exits 0 —
// or exits 1 if the drain timeout forces connections closed.
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	randtas "repro"
	"repro/internal/server"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:7420", "TCP listen address")
		maxClients   = flag.Int("max-clients", 64, "maximum simultaneous clients (process slots)")
		algo         = flag.String("algo", "combined", "TAS algorithm: combined, logstar, sifting, adaptive-sifting, ratrace, ratrace-original, agtv")
		shards       = flag.Int("shards", 0, "arena shards (0 = default)")
		prealloc     = flag.Int("prealloc", 0, "preallocated slots per shard (0 = 1)")
		seed         = flag.Int64("seed", 0, "deterministic coin seed (0 = per-run random)")
		leaseSweep   = flag.Duration("lease-sweep", 5*time.Millisecond, "lease sweeper interval — a lease is enforced within TTL + this")
		maxIdle      = flag.Duration("max-idle", 0, "evict named locks idle this long, checked every max-idle (0 = never evict)")
		maxInflight  = flag.Int("max-inflight", 0, "shed blocked ACQUIREs beyond this many server-wide (0 = unbounded)")
		maxWaiters   = flag.Int("max-waiters", 0, "shed blocked ACQUIREs beyond this many per lock (0 = unbounded)")
		writeTimeout = flag.Duration("write-timeout", 0, "evict a client whose response writes stall this long (0 = never)")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "graceful drain budget on SIGTERM/SIGINT")
		quiet        = flag.Bool("quiet", false, "suppress lifecycle logging")
	)
	flag.Parse()

	algorithm, err := randtas.ParseAlgorithm(*algo)
	if err != nil {
		log.Fatalf("tasd: %v", err)
	}
	logf := log.Printf
	if *quiet {
		logf = func(string, ...interface{}) {}
	}
	srv, err := server.New(server.Config{
		Addr:         *addr,
		MaxClients:   *maxClients,
		Algorithm:    algorithm,
		Seed:         *seed,
		ArenaShards:  *shards,
		Prealloc:     *prealloc,
		LeaseSweep:   *leaseSweep,
		MaxIdle:      *maxIdle,
		MaxInflight:  *maxInflight,
		MaxWaiters:   *maxWaiters,
		WriteTimeout: *writeTimeout,
		Logf:         logf,
	})
	if err != nil {
		log.Fatalf("tasd: %v", err)
	}
	if err := srv.Listen(); err != nil {
		log.Fatalf("tasd: %v", err)
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve() }()

	select {
	case err := <-serveErr:
		log.Fatalf("tasd: serve: %v", err)
	case sig := <-sigs:
		logf("tasd: %v — draining (budget %v)", sig, *drainTimeout)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("tasd: drain incomplete, connections force-closed: %v", err)
		os.Exit(1)
	}
	if err := <-serveErr; err != nil {
		log.Fatalf("tasd: serve: %v", err)
	}
}
