package main

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/wire"
)

// TestNetVerdicts feeds each scenario's verdict a healthy outcome, which
// must pass and count the operations the daemon served, and each outcome
// the scenario exists to catch, which must fail.
func TestNetVerdicts(t *testing.T) {
	rounds := func(n uint64) wire.Stats {
		return wire.Stats{Locks: []wire.LockStats{{Name: "lock-0", Rounds: n}, {Name: "lock-1", Rounds: 2 * n}, {Name: "other", Rounds: 1000}}}
	}
	cases := map[string]struct {
		ok   outcome
		ops  int
		fail map[string]func(o *outcome)
	}{
		"pairs": {
			ok:  outcome{tally: tally{pairs: 36}, locks: 2, before: rounds(3), after: rounds(15)},
			ops: 72,
			fail: map[string]func(o *outcome){
				"fewer rounds than pairs": func(o *outcome) { o.pairs++ },
				"more rounds than pairs":  func(o *outcome) { o.pairs-- },
				"truncated STATS":         func(o *outcome) { o.after.Truncated = true },
			},
		},
		"churn": {
			ok:  outcome{tally: tally{pairs: 20, fenced: 1, abandoned: 3}, before: wire.Stats{LeaseExpirations: 5}, after: wire.Stats{LeaseExpirations: 8}},
			ops: 45, // 20 clean and 1 fenced ACQUIRE/RELEASE pairs, 3 abandoned grants
			fail: map[string]func(o *outcome){
				"no lease expired":  func(o *outcome) { o.after.LeaseExpirations = 5 },
				"nothing abandoned": func(o *outcome) { o.abandoned = 0 },
			},
		},
		"storm": {
			ok:  outcome{tally: tally{fenced: 4}},
			ops: 8, // every cycle fenced: each ACQUIRE and RELEASE was answered
			fail: map[string]func(o *outcome){
				"no fenced release": func(o *outcome) { o.fenced = 0 },
			},
		},
		"disconnect": {
			ok:  outcome{tally: tally{pairs: 5, disconnects: 9}, before: wire.Stats{Aborts: 2}, after: wire.Stats{Aborts: 7}},
			ops: 10, // an abandoned ACQUIRE was never answered
			fail: map[string]func(o *outcome){
				"no abandoned ACQUIRE": func(o *outcome) { o.disconnects = 0 },
				"no elector abort":     func(o *outcome) { o.after.Aborts = 2 },
			},
		},
		"flood": {
			ok: outcome{tally: tally{pairs: 50, granted: 50, shed: 70}, before: wire.Stats{Shed: 10},
				after: wire.Stats{Shed: 80, MaxWaiters: 2, QueueDepthHighWater: 2, MaxInflight: 6, InflightHighWater: 6}},
			ops: 100, // goodput: a shed ACQUIRE is refused, not served
			fail: map[string]func(o *outcome){
				"no client shed":           func(o *outcome) { o.shed = 0 },
				"no server shed":           func(o *outcome) { o.after.Shed = 10 },
				"zero goodput":             func(o *outcome) { o.granted = 0 },
				"queue bound breached":     func(o *outcome) { o.after.QueueDepthHighWater = 3 },
				"in-flight bound breached": func(o *outcome) { o.after.InflightHighWater = 7 },
			},
		},
	}
	for name, sc := range netScenarios {
		c, ok := cases[name]
		if !ok {
			t.Errorf("%s: no verdict case", name)
			continue
		}
		if err := sc.verdict(c.ok); err != nil {
			t.Errorf("%s: healthy outcome failed: %v", name, err)
		}
		if got := c.ok.ops(); got != c.ops {
			t.Errorf("%s: healthy outcome counts %d ops, want %d", name, got, c.ops)
		}
		for what, mutate := range c.fail {
			o := c.ok
			mutate(&o)
			if err := sc.verdict(o); err == nil {
				t.Errorf("%s: %s passed", name, what)
			}
		}
	}
}

// TestNetAgainstServer runs pairs twice, storm once and flood once
// against servers on loopback ports. The second pairs run meets the
// first one's rounds on the same daemon, so it passes only if the round
// accounting reads this run's STATS delta; storm's releases are all
// fenced, so it clears its ops/sec floor only if fenced cycles count as
// ops; flood meets a small admission envelope.
func TestNetAgainstServer(t *testing.T) {
	for _, tc := range []struct {
		cfg  netConfig
		env  server.Config
		runs int
	}{
		{netConfig{scenario: "pairs", clients: 4, locks: 4, ttl: 5 * time.Second}, server.Config{}, 2},
		{netConfig{scenario: "storm", clients: 4, locks: 2, ttl: 30 * time.Millisecond, floor: 1}, server.Config{}, 1},
		{netConfig{scenario: "flood", clients: 12, locks: 2}, server.Config{MaxWaiters: 2, MaxInflight: 6}, 1},
	} {
		t.Run(tc.cfg.scenario, func(t *testing.T) {
			tc.env.Addr = "127.0.0.1:0"
			srv, err := server.New(tc.env)
			if err != nil {
				t.Fatal(err)
			}
			if err := srv.Listen(); err != nil {
				t.Fatal(err)
			}
			go srv.Serve()
			defer func() {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				srv.Shutdown(ctx)
			}()
			tc.cfg.addr = srv.Addr().String()
			tc.cfg.duration = 300 * time.Millisecond
			for range tc.runs {
				var out bytes.Buffer
				if err := runNet(&out, tc.cfg); err != nil {
					t.Fatalf("%v\n%s", err, out.String())
				}
			}
		})
	}
}

// TestNetRejectsBadConfig: an unknown scenario, a lease scenario with no
// -ttl and an empty fleet are usage errors, reported before any dial.
func TestNetRejectsBadConfig(t *testing.T) {
	for _, cfg := range []netConfig{
		{scenario: "nope", clients: 1, locks: 1},
		{scenario: "churn", clients: 1, locks: 1},
		{scenario: "storm", clients: 1, locks: 1},
		{scenario: "pairs", clients: 0, locks: 1},
		{scenario: "pairs", clients: 1, locks: 0},
	} {
		if err := runNet(&bytes.Buffer{}, cfg); err == nil {
			t.Errorf("%+v: no error", cfg)
		}
	}
}
