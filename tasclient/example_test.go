package tasclient_test

import (
	"context"
	"fmt"
	"time"

	"repro/internal/server"
	"repro/tasclient"
)

// ExampleDialContext: connect to a tasd lock daemon, take a named lock
// under a lease, run a leader election, and read the server's counters.
// The server here runs in-process on an ephemeral port; against a real
// daemon, dial its -addr instead.
func ExampleDialContext() {
	srv, err := server.New(server.Config{Addr: "127.0.0.1:0", MaxClients: 4})
	if err != nil {
		panic(err)
	}
	if err := srv.Listen(); err != nil {
		panic(err)
	}
	go srv.Serve()

	ctx := context.Background()
	c, err := tasclient.DialContext(ctx, srv.Addr().String())
	if err != nil {
		panic(err)
	}
	defer c.Close()

	// A leased acquisition: if we hang for 30s without releasing, the
	// server expires the grant and our Release would answer ErrFenced.
	tok, err := c.Acquire(ctx, "deploy", 30*time.Second)
	if err != nil {
		panic(err)
	}
	fmt.Println("holding deploy, token", tok)
	if err := c.Release(ctx, "deploy", tok); err != nil {
		panic(err)
	}

	leader, epoch, err := c.Elect(ctx, "leader/workers")
	if err != nil {
		panic(err)
	}
	fmt.Printf("leader: %v (epoch %d)\n", leader, epoch) // sole participant, so always the winner

	st, err := c.Stats(ctx)
	if err != nil {
		panic(err)
	}
	fmt.Println("rounds:", st.Locks[0].Rounds, "violations:", st.Violations)

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	c.Close()
	srv.Shutdown(shutdownCtx)
	// Output:
	// holding deploy, token 1
	// leader: true (epoch 1)
	// rounds: 1 violations: 0
}
