package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"repro/internal/complexity"
)

// TestClaimsQuickGolden pins the -quick table: every measured value,
// fitted class and verdict. A change that moves any of them fails here
// until the file is regenerated on purpose with
//
//	go run ./cmd/tasbench -quick > cmd/tasbench/testdata/claims-quick.golden
func TestClaimsQuickGolden(t *testing.T) {
	var out bytes.Buffer
	if err := runClaims(&out, claimsConfig{seed: 1, trials: 100, quick: true}, claims()); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	want, err := os.ReadFile("testdata/claims-quick.golden")
	if err != nil {
		t.Fatal(err)
	}
	got, wantLines := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(got) || i < len(wantLines); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("line %d:\n got %q\nwant %q", i+1, g, w)
		}
	}
}

// TestClaimsFailOutsideBound checks that a growth row whose fitted class
// is above its ceiling, or below its floor, fails the run.
func TestClaimsFailOutsideBound(t *testing.T) {
	for name, g := range map[string]growth{
		// Theorem 2.3's ceiling under the R/W-oblivious attack, which
		// drives the log* chain to Θ(k) steps.
		"above ceiling": {claim: "Thm 2.3", algo: "log* chain", factory: logStarFactory,
			adversary: ascendingLocation, trials: 1, bound: complexity.LogLog},
		// The sifting chain's floor under the R/W-oblivious adversary,
		// which it is built to withstand.
		"below floor": {claim: "Sec 2.3", algo: "sifting chain", factory: siftingFactory,
			adversary: ascendingLocation, trials: 1, bound: complexity.Sqrt, floor: true},
	} {
		var out bytes.Buffer
		err := runClaims(&out, claimsConfig{seed: 1, trials: 1, quick: true}, []claim{g.run})
		if err == nil || !strings.Contains(out.String(), "FAIL") {
			t.Errorf("%s: err = %v, want a failed run with a FAIL row\n%s", name, err, out.String())
		}
	}
}
