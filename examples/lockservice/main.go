// Lock service: tasd + tasclient end to end in one process, on the v2
// fenced/leased surface.
//
// An in-process tasd server listens on an ephemeral loopback port and
// four clients connect over real TCP (negotiating protocol v2 via
// HELLO). Each client first runs a synchronous critical-section loop on
// one shared named lock — Acquire under a lease, increment a plain
// counter, Release with the fencing token — then demonstrates
// pipelining by sending batched ACQUIRE/RELEASE pairs through Client.Do
// (all frames in one write, answered by the server as one batch). All
// four join a leader election; exactly one wins epoch 1, the epoch is
// reset, and exactly one wins epoch 2. Finally one client plays a hung
// holder: it acquires with a short lease and sits on it — the server
// expires the lease, another client gets the lock, and the zombie's
// release comes back fenced.
//
// Mutual exclusion comes from the randomized TAS rounds under the named
// lock, and the server's own token-keyed owner check (STATS violations)
// re-verifies it end to end.
//
//	go run -race ./examples/lockservice
//
// Against a standalone daemon, run `go run ./cmd/tasd` and replace the
// in-process server with its address.
package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/server"
	"repro/tasclient"
)

func main() {
	srv, err := server.New(server.Config{Addr: "127.0.0.1:0", MaxClients: 8, LeaseSweep: 2 * time.Millisecond})
	if err != nil {
		panic(err)
	}
	if err := srv.Listen(); err != nil {
		panic(err)
	}
	go srv.Serve()
	addr := srv.Addr().String()
	ctx := context.Background()

	const (
		workers = 4
		iters   = 1000 // synchronous critical sections per client
		batches = 50   // pipelined Do batches per client
		depth   = 8    // ACQUIRE/RELEASE pairs per batch
	)
	var (
		counter int // guarded by the "counter" lock alone
		wg      sync.WaitGroup
		mu      sync.Mutex
		leaders = map[uint64]int{} // epoch -> leaders elected
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := tasclient.DialContext(ctx, addr)
			if err != nil {
				panic(err)
			}
			defer c.Close()
			// Epoch 1 of the leader election.
			if won, epoch, err := c.Elect(ctx, "leader/demo"); err != nil {
				panic(err)
			} else if won {
				mu.Lock()
				leaders[epoch]++
				mu.Unlock()
			}
			// Synchronous critical sections: client-side work between
			// Acquire and Release needs one round trip per operation.
			// The lease means a hung worker could never wedge the
			// counter lock for more than a second.
			for i := 0; i < iters; i++ {
				tok, err := c.Acquire(ctx, "counter", time.Second)
				if err != nil {
					panic(err)
				}
				counter++
				if err := c.Release(ctx, "counter", tok); err != nil {
					panic(err)
				}
			}
			// Pipelined batches: when the work is the locking itself
			// (queues, tokens, leases), Do ships depth pairs in one
			// write and the server answers the whole batch in one.
			batch := make([]tasclient.Op, 0, 2*depth)
			for i := 0; i < depth; i++ {
				batch = append(batch,
					tasclient.Op{Code: tasclient.OpAcquire, Name: "pipelined", TTL: time.Second},
					tasclient.Op{Code: tasclient.OpRelease, Name: "pipelined"},
				)
			}
			for b := 0; b < batches; b++ {
				res, err := c.Do(ctx, batch)
				if err != nil {
					panic(err)
				}
				for i, r := range res {
					if !r.OK {
						fmt.Fprintf(os.Stderr, "batch op %d failed: %+v\n", i, r)
						os.Exit(1)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	want := workers * iters
	if counter != want {
		fmt.Fprintf(os.Stderr, "counter = %d, want %d: mutual exclusion violated\n", counter, want)
		os.Exit(1)
	}
	if leaders[1] != 1 {
		fmt.Fprintf(os.Stderr, "%d leaders elected in epoch 1, want 1\n", leaders[1])
		os.Exit(1)
	}

	// Re-electable leadership: reset epoch 1, elect again in epoch 2.
	c, err := tasclient.DialContext(ctx, addr)
	if err != nil {
		panic(err)
	}
	newEpoch, err := c.ResetElection(ctx, "leader/demo", 1)
	if err != nil {
		panic(err)
	}
	won2, epoch2, err := c.Elect(ctx, "leader/demo")
	if err != nil || !won2 || epoch2 != newEpoch {
		fmt.Fprintf(os.Stderr, "epoch-%d election = (%v, %v), want the sole participant to lead\n", newEpoch, won2, err)
		os.Exit(1)
	}

	// The hung-holder drill: acquire with a 25ms lease and just sit on
	// it. The server expires the lease; a second client acquires within
	// TTL + sweep; the zombie's release is fenced.
	zombieTok, err := c.Acquire(ctx, "leased/demo", 25*time.Millisecond)
	if err != nil {
		panic(err)
	}
	c2, err := tasclient.DialContext(ctx, addr)
	if err != nil {
		panic(err)
	}
	t0 := time.Now()
	freshTok, err := c2.Acquire(ctx, "leased/demo", 0) // blocks until the lease expires
	if err != nil {
		panic(err)
	}
	recovery := time.Since(t0)
	if err := c2.Release(ctx, "leased/demo", freshTok); err != nil {
		panic(err)
	}
	fencedErr := c.Release(ctx, "leased/demo", zombieTok)
	if !errors.Is(fencedErr, tasclient.ErrFenced) {
		fmt.Fprintf(os.Stderr, "zombie release = %v, want ErrFenced\n", fencedErr)
		os.Exit(1)
	}

	st, err := c.Stats(ctx)
	if err != nil {
		panic(err)
	}
	c.Close()
	c2.Close()
	fmt.Printf("%d clients over TCP (protocol v%d): %d synchronous + %d pipelined leased acquisitions, counter exact ✓\n",
		workers, st.ProtocolVersion, want, workers*batches*depth)
	fmt.Printf("leader elected:      1 of %d contenders in epoch 1, re-elected after reset in epoch %d ✓\n", workers, newEpoch)
	fmt.Printf("lease enforcement:   hung holder fenced, waiter granted in %v (ttl 25ms + sweep) ✓\n", recovery.Round(time.Millisecond))
	fmt.Printf("server violations:   %d, lease expirations: %d\n", st.Violations, st.LeaseExpirations)
	for _, l := range st.Locks {
		fmt.Printf("lock %-14q rounds=%-6d contended=%-4d expirations=%d\n", l.Name, l.Rounds, l.Contended, l.Expirations)
	}
	fmt.Printf("arena: %d slots, %d recycles (amortized O(1) per acquisition)\n", st.Arena.Slots, st.Arena.Puts)

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		panic(err)
	}
}
