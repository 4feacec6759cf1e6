// Black-box tests of the concurrent backend. They live in an external
// test package because every elector imports concurrent, through shm's
// aliases.
package concurrent_test

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/concurrent"
	"repro/internal/shm"
	"repro/internal/twoproc"
)

func TestRegisterAtomicOps(t *testing.T) {
	s := concurrent.NewSpace()
	r := s.NewRegister(7)
	h := concurrent.NewHandle(0, 1)
	if got := h.Read(r); got != 7 {
		t.Fatalf("initial read = %d, want 7", got)
	}
	h.Write(r, 42)
	if got := h.Read(r); got != 42 {
		t.Fatalf("read after write = %d", got)
	}
	if h.Steps() != 3 {
		t.Fatalf("steps = %d, want 3", h.Steps())
	}
	if s.Registers() != 1 {
		t.Fatalf("registers = %d, want 1", s.Registers())
	}
}

// TestConcurrentContention hammers one register from many goroutines under
// the race detector.
func TestConcurrentContention(t *testing.T) {
	s := concurrent.NewSpace()
	r := s.NewRegister(0)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			h := concurrent.NewHandle(id, int64(id)+1)
			for j := 0; j < 1000; j++ {
				h.Write(r, shm.Value(id))
				_ = h.Read(r)
			}
		}(i)
	}
	wg.Wait()
}

// TestTwoProcLEOnRealBackend runs the algorithm code unchanged on atomics.
func TestTwoProcLEOnRealBackend(t *testing.T) {
	for trial := 0; trial < 200; trial++ {
		s := concurrent.NewSpace()
		le := twoproc.New(s)
		var won [2]bool
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				h := concurrent.NewHandle(id, int64(trial*2+id)+1)
				won[id] = le.Elect(h, id)
			}(i)
		}
		wg.Wait()
		if won[0] == won[1] {
			t.Fatalf("trial %d: outcomes %v", trial, won)
		}
	}
}

func TestCoinBounds(t *testing.T) {
	h := concurrent.NewHandle(0, 9)
	if h.Coin(0) {
		t.Error("Coin(0) returned true")
	}
	if !h.Coin(1) {
		t.Error("Coin(1) returned false")
	}
	heads := 0
	for i := 0; i < 10000; i++ {
		if h.Coin(0.5) {
			heads++
		}
	}
	if heads < 4500 || heads > 5500 {
		t.Errorf("Coin(0.5): %d/10000 heads", heads)
	}
}

// TestCoinThreshold checks the integer-threshold Coin against skewed
// probabilities, not just the fair coin.
func TestCoinThreshold(t *testing.T) {
	for _, p := range []float64{0.1, 0.9} {
		h := concurrent.NewHandle(0, int64(p*100)+3)
		heads := 0
		const n = 20000
		for i := 0; i < n; i++ {
			if h.Coin(p) {
				heads++
			}
		}
		got := float64(heads) / n
		if got < p-0.02 || got > p+0.02 {
			t.Errorf("Coin(%.1f): empirical %.3f", p, got)
		}
	}
}

// TestIntnUniform: Intn respects bounds and is roughly uniform.
func TestIntnUniform(t *testing.T) {
	h := concurrent.NewHandle(1, 77)
	var buckets [8]int
	const n = 40000
	for i := 0; i < n; i++ {
		v := h.Intn(8)
		if v < 0 || v >= 8 {
			t.Fatalf("Intn(8) = %d out of range", v)
		}
		buckets[v]++
	}
	for b, c := range buckets {
		if c < n/8-n/40 || c > n/8+n/40 {
			t.Errorf("bucket %d has %d/%d draws", b, c, n)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	h.Intn(0)
}

// TestSpaceReset: the register-reuse hook restores every register to its
// initial value without changing the footprint.
func TestSpaceReset(t *testing.T) {
	s := concurrent.NewSpace()
	r7 := s.NewRegister(7)
	r0 := s.NewRegister(0)
	h := concurrent.NewHandle(0, 1)
	h.Write(r7, 99)
	h.Write(r0, -3)
	if s.Registers() != 2 {
		t.Fatalf("registers = %d, want 2", s.Registers())
	}
	s.Reset()
	if got := h.Read(r7); got != 7 {
		t.Errorf("after Reset r7 = %d, want 7", got)
	}
	if got := h.Read(r0); got != 0 {
		t.Errorf("after Reset r0 = %d, want 0", got)
	}
	if s.Registers() != 2 {
		t.Errorf("Reset changed register count to %d", s.Registers())
	}
}

// TestResetDirtyWindowEquivalence is the property test for the
// dirty-window optimization: under randomized write patterns (random
// subsets of registers, random values, several rounds), a dirty-tracked
// Reset must return every register to its own initial value, whether
// or not the round wrote it.
func TestResetDirtyWindowEquivalence(t *testing.T) {
	rnd := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		nRegs := 1 + rnd.Intn(300) // spans multiple banks
		s := concurrent.NewSpace()
		inits := make([]shm.Value, nRegs)
		regs := make([]shm.Register, nRegs)
		for i := range regs {
			inits[i] = shm.Value(rnd.Intn(100) - 50)
			regs[i] = s.NewRegister(inits[i])
		}
		s.Seal()
		h := concurrent.NewHandle(0, int64(trial)+1)
		for round := 0; round < 3; round++ {
			for i := 0; i < nRegs; i++ {
				if rnd.Intn(3) == 0 {
					h.Write(regs[i], shm.Value(rnd.Int63n(1000)))
				}
			}
			s.Reset()
			for i := 0; i < nRegs; i++ {
				if v := h.Read(regs[i]); v != inits[i] {
					t.Fatalf("trial %d round %d reg %d: value %d, want initial %d", trial, round, i, v, inits[i])
				}
			}
		}
	}
}

// TestRegisterPointerStability: banks never move, so registers allocated
// early remain valid as the space grows past many bank boundaries.
func TestRegisterPointerStability(t *testing.T) {
	s := concurrent.NewSpace()
	early := s.NewRegister(5)
	h := concurrent.NewHandle(0, 3)
	for i := 0; i < 500; i++ { // force several new banks
		s.NewRegister(shm.Value(i))
	}
	h.Write(early, 123)
	if got := h.Read(early); got != 123 {
		t.Fatalf("early register read %d after bank growth, want 123", got)
	}
	if s.Banks() < 2 {
		t.Fatalf("expected multiple banks for 501 registers, got %d", s.Banks())
	}
	s.Reset()
	if got := h.Read(early); got != 5 {
		t.Fatalf("early register = %d after Reset, want 5", got)
	}
}

// TestSealedSpacePanics: the late-allocation guard.
func TestSealedSpacePanics(t *testing.T) {
	s := concurrent.NewSpace()
	s.NewRegister(0)
	if s.Sealed() {
		t.Fatal("fresh space reports sealed")
	}
	s.Seal()
	if !s.Sealed() {
		t.Fatal("Seal did not stick")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewRegister on a sealed space did not panic")
		}
	}()
	s.NewRegister(1)
}

// TestResetMakesObjectsReusable: a one-shot object on a reset space
// behaves exactly like a fresh one — the arena's recycling contract.
func TestResetMakesObjectsReusable(t *testing.T) {
	s := concurrent.NewSpace()
	le := twoproc.New(s)
	s.Seal()
	for round := 0; round < 50; round++ {
		var won [2]bool
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				h := concurrent.NewHandle(id, int64(round*2+id)+1)
				won[id] = le.Elect(h, id)
			}(i)
		}
		wg.Wait()
		if won[0] == won[1] {
			t.Fatalf("round %d: outcomes %v, want exactly one winner", round, won)
		}
		s.Reset()
	}
}
