package main

import (
	"fmt"
	"testing"
)

// TestReplayLineReproducesRun parses the replay command printed for each
// index of a corpus, maps its flags to a dstConfig as main does, and
// checks that the last run of that corpus has the configuration the
// original corpus ran at the index: same seed, scenario, operation count
// and fault mix.
func TestReplayLineReproducesRun(t *testing.T) {
	cfg := dstConfig{seeds: 9, base: 1, scenario: "all", ops: 25}
	for i := 0; i < cfg.seeds; i++ {
		line := cfg.replay(i)
		var (
			seed int64
			r    dstConfig
		)
		if _, err := fmt.Sscanf(line, "tasbench -mode=dst -dstseeds %d -seed %d -dstscenario %s -dstops %d",
			&r.seeds, &seed, &r.scenario, &r.ops); err != nil {
			t.Fatalf("index %d: cannot parse %q: %v", i, line, err)
		}
		r.base = uint64(seed)
		if got, want := r.run(r.seeds-1), cfg.run(i); got != want {
			t.Errorf("index %d: %q replays\n%+v\nwant\n%+v", i, line, got, want)
		}
	}
}

// TestDSTRejectsEmptyCorpus: a corpus of no seeds is a usage error, not
// a silent run of the default size.
func TestDSTRejectsEmptyCorpus(t *testing.T) {
	for _, n := range []int{0, -1} {
		if err := runDST(dstConfig{seeds: n, base: 1, scenario: "all"}); err == nil {
			t.Errorf("-dstseeds %d: no error", n)
		}
	}
}
