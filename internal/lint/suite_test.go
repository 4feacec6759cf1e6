package lint

import "testing"

// Each fixture covers one analyzer's hit, non-hit and suppression
// cases; the import path passed to runFixture is part of the test,
// since path suffixes are what opt packages into the deterministic and
// server-package rule sets.

func TestDetClockDirectiveOptIn(t *testing.T) {
	runFixture(t, "detclock", "x/detclockfixture", DetClock)
}

func TestDetClockPathOptIn(t *testing.T) {
	runFixture(t, "detpath", "x/internal/dst", DetClock)
}

func TestDeterminismAnalyzersSilentOutsideSet(t *testing.T) {
	runFixture(t, "nondet", "x/nondet", DetClock, DetIter)
}

func TestDetRand(t *testing.T) {
	runFixture(t, "detrand", "x/detrandfixture", DetRand)
}

func TestDetIter(t *testing.T) {
	runFixture(t, "detiter", "x/detiterfixture", DetIter)
}

func TestLayout64Directive(t *testing.T) {
	runFixture(t, "layout64", "x/layout64fixture", Layout64)
}

func TestLayout64RegisterByName(t *testing.T) {
	runFixture(t, "layout64reg", "x/internal/concurrent", Layout64)
}

func TestAtomicOr(t *testing.T) {
	runFixture(t, "atomicor", "x/atomicorfixture", AtomicOr)
}

func TestHotClock(t *testing.T) {
	runFixture(t, "hotclock", "x/internal/server", HotClock)
}

func TestStdSubsets(t *testing.T) {
	runFixture(t, "std", "x/stdfixture", Nilness)
}
