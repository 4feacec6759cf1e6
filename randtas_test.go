package randtas

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

var allAlgorithms = []Algorithm{
	Combined, LogStar, Sifting, AdaptiveSifting, RatRace, AGTV,
}

// runConcurrentTAS launches k real goroutines against one TAS object and
// returns their results.
func runConcurrentTAS(t *testing.T, algo Algorithm, n, k int, seed int64) []int {
	t.Helper()
	obj, err := NewTAS(Options{N: n, Algorithm: algo, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	rets := make([]int, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(id int, p *TASProc) {
			defer wg.Done()
			rets[id] = p.TAS()
		}(i, obj.Proc(i))
	}
	wg.Wait()
	return rets
}

// TestTASExactlyOneWinner is the headline correctness property on the
// real backend, across all algorithms, with the race detector able to
// validate the memory discipline.
func TestTASExactlyOneWinner(t *testing.T) {
	for _, algo := range allAlgorithms {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			t.Parallel()
			for _, k := range []int{1, 2, 8, 32} {
				for seed := int64(1); seed <= 8; seed++ {
					rets := runConcurrentTAS(t, algo, 32, k, seed)
					zeros := 0
					for _, r := range rets {
						if r == 0 {
							zeros++
						}
					}
					if zeros != 1 {
						t.Fatalf("k=%d seed=%d: %d winners, want 1", k, seed, zeros)
					}
				}
			}
		})
	}
}

// TestRatRaceOriginalSmall exercises the cubic-space baseline at a size
// where its footprint is tolerable.
func TestRatRaceOriginalSmall(t *testing.T) {
	rets := runConcurrentTAS(t, RatRaceOriginal, 8, 8, 5)
	zeros := 0
	for _, r := range rets {
		if r == 0 {
			zeros++
		}
	}
	if zeros != 1 {
		t.Fatalf("%d winners, want 1", zeros)
	}
}

// TestLeaderElection mirrors the TAS test through the Elect API.
func TestLeaderElection(t *testing.T) {
	le, err := NewLeaderElection(Options{N: 16, Algorithm: Combined, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	won := make([]bool, 16)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(id int, p *Proc) {
			defer wg.Done()
			won[id] = p.Elect()
		}(i, le.Proc(i))
	}
	wg.Wait()
	winners := 0
	for _, w := range won {
		if w {
			winners++
		}
	}
	if winners != 1 {
		t.Fatalf("%d winners, want 1", winners)
	}
}

// TestSpaceFootprints checks the register-count separation on the real
// backend too.
func TestSpaceFootprints(t *testing.T) {
	regs := func(algo Algorithm, n int) int {
		obj, err := NewTAS(Options{N: n, Algorithm: algo})
		if err != nil {
			t.Fatal(err)
		}
		return obj.Registers()
	}
	se := regs(RatRace, 64)
	orig := regs(RatRaceOriginal, 64)
	if orig < 20*se {
		t.Errorf("original RatRace (%d regs) vs space-efficient (%d): separation too small", orig, se)
	}
	if lin := regs(LogStar, 1024); lin > 40*1024 {
		t.Errorf("log* TAS uses %d registers at n=1024, want O(n)", lin)
	}
}

// TestReadSemantics: Read flips to 1 once a TAS completes — after the
// losers, or after a lone winner.
func TestReadSemantics(t *testing.T) {
	obj, err := NewTAS(Options{N: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if got := obj.Proc(3).Read(); got != 0 {
		t.Fatalf("Read before TAS = %d", got)
	}
	runDone := make(chan struct{})
	go func() {
		defer close(runDone)
		var wg sync.WaitGroup
		for i := 0; i < 3; i++ {
			wg.Add(1)
			go func(p *TASProc) {
				defer wg.Done()
				p.TAS()
			}(obj.Proc(i))
		}
		wg.Wait()
	}()
	<-runDone
	// Three completed TAS calls: at least two losers have written done.
	if got := obj.Proc(3).Read(); got != 1 {
		t.Fatalf("Read after TAS completions = %d, want 1", got)
	}

	// A lone winner writes no register, yet its completed TAS must show.
	for _, algo := range allAlgorithms {
		obj, err := NewTAS(Options{N: 2, Algorithm: algo, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		if got := obj.Proc(0).TAS(); got != 0 {
			t.Fatalf("%v: solo TAS = %d, want 0", algo, got)
		}
		p := obj.Proc(1)
		if got := p.Read(); got != 1 {
			t.Errorf("%v: Read after a lone winner = %d, want 1", algo, got)
		}
		if p.Steps() != 1 {
			t.Errorf("%v: Read took %d steps, want 1", algo, p.Steps())
		}
	}
}

// TestOneShotGuard documents the misuse contract.
func TestOneShotGuard(t *testing.T) {
	obj, err := NewTAS(Options{N: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	p := obj.Proc(0)
	p.TAS()
	defer func() {
		if recover() == nil {
			t.Fatal("second TAS on one proc did not panic")
		}
	}()
	p.TAS()
}

// TestInvalidOptions covers constructor validation.
func TestInvalidOptions(t *testing.T) {
	if _, err := NewTAS(Options{N: 0}); err == nil {
		t.Error("N=0 accepted")
	}
	if _, err := NewLeaderElection(Options{N: -3}); err == nil {
		t.Error("negative N accepted")
	}
	if _, err := NewTAS(Options{N: 2, Algorithm: Algorithm(99)}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

// TestDeterministicSeeds: a fixed seed fixes the winner under sequential
// execution.
func TestDeterministicSeeds(t *testing.T) {
	run := func() int {
		obj, err := NewTAS(Options{N: 4, Algorithm: LogStar, Seed: 1234})
		if err != nil {
			t.Fatal(err)
		}
		winner := -1
		for i := 0; i < 4; i++ { // strictly sequential
			if obj.Proc(i).TAS() == 0 {
				winner = i
			}
		}
		return winner
	}
	if a, b := run(), run(); a != b {
		t.Errorf("winners differ across identical runs: %d vs %d", a, b)
	}
}

// TestStepsReported: the steps counter moves and stays modest.
func TestStepsReported(t *testing.T) {
	obj, err := NewTAS(Options{N: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	p := obj.Proc(0)
	p.TAS()
	if p.Steps() < 1 || p.Steps() > 200 {
		t.Errorf("winner took %d steps", p.Steps())
	}
}

// TestConcurrentStress is the real-contention workout for the concurrent
// backend: many goroutines hammer one TAS object per trial across every
// algorithm, with a start barrier so attempts genuinely overlap. It
// asserts the one-winner property and that per-proc Steps() accounting is
// monotone and sane. Run with -race to validate the memory discipline.
func TestConcurrentStress(t *testing.T) {
	if testing.Short() {
		t.Skip("contention stress is slow under -race")
	}
	const k = 64
	for _, algo := range allAlgorithms {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= 5; seed++ {
				obj, err := NewTAS(Options{N: k, Algorithm: algo, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				start := make(chan struct{})
				var (
					wg      sync.WaitGroup
					winners int32
					steps   [k]int
				)
				for i := 0; i < k; i++ {
					wg.Add(1)
					go func(id int, p *TASProc) {
						defer wg.Done()
						if p.Steps() != 0 {
							t.Errorf("proc %d: nonzero steps before TAS", id)
						}
						<-start
						r := p.TAS()
						mid := p.Steps()
						if r == 0 {
							atomic.AddInt32(&winners, 1)
						}
						if mid < 1 {
							t.Errorf("proc %d: TAS took %d steps", id, mid)
						}
						// Read costs exactly one step: monotone accounting.
						p.Read()
						if after := p.Steps(); after != mid+1 {
							t.Errorf("proc %d: steps went %d -> %d across one Read", id, mid, after)
						}
						steps[id] = p.Steps()
					}(i, obj.Proc(i))
				}
				close(start)
				wg.Wait()
				if winners != 1 {
					t.Fatalf("seed %d: %d winners, want 1", seed, winners)
				}
				total := 0
				for _, s := range steps {
					total += s
				}
				if total < 2*k {
					t.Errorf("seed %d: total steps %d < %d — step accounting lost work", seed, total, 2*k)
				}
			}
		})
	}
}

// TestMutexMutualExclusion drives the public reusable Mutex from 8 real
// goroutines and checks the guarded counter is exact.
func TestMutexMutualExclusion(t *testing.T) {
	for _, algo := range []Algorithm{Combined, RatRace, AGTV} {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			t.Parallel()
			const workers, iters = 8, 250
			m, err := NewMutex(ArenaOptions{Options: Options{N: workers, Algorithm: algo, Seed: 42}})
			if err != nil {
				t.Fatal(err)
			}
			counter := 0
			start := make(chan struct{})
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(p *MutexProc) {
					defer wg.Done()
					<-start
					for i := 0; i < iters; i++ {
						tok, err := p.Lock(context.Background())
						if err != nil {
							t.Error(err)
							return
						}
						counter++
						if err := p.Unlock(tok); err != nil {
							t.Error(err)
							return
						}
					}
				}(m.Proc(w))
			}
			close(start)
			wg.Wait()
			if counter != workers*iters {
				t.Fatalf("counter = %d, want %d", counter, workers*iters)
			}
			if st := m.Stats(); st.Rounds != workers*iters {
				t.Errorf("rounds = %d, want %d", st.Rounds, workers*iters)
			}
		})
	}
}

// TestArenaShared: several mutexes drawing from one shared arena recycle
// from the same pool and the shard stats add up.
func TestArenaShared(t *testing.T) {
	a, err := NewArena(ArenaOptions{Options: Options{N: 4, Seed: 7}, Shards: 2, Prealloc: 2})
	if err != nil {
		t.Fatal(err)
	}
	m1, m2 := a.NewMutex(), a.NewMutex()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p1, p2 := m1.Proc(id), m2.Proc(id)
			for i := 0; i < 100; i++ {
				for _, p := range []*MutexProc{p1, p2} {
					tok, err := p.Lock(context.Background())
					if err != nil {
						t.Error(err)
						return
					}
					if err := p.Unlock(tok); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	st := a.Stats()
	if st.Slots == 0 || st.Puts == 0 {
		t.Errorf("shared arena stats not moving: %+v", st)
	}
	if got := len(a.ShardStats()); got != 2 {
		t.Errorf("ShardStats returned %d shards, want 2", got)
	}
}

// TestMutexInvalidOptions covers the arena constructors' validation.
func TestMutexInvalidOptions(t *testing.T) {
	if _, err := NewMutex(ArenaOptions{Options: Options{N: 0}}); err == nil {
		t.Error("N=0 accepted")
	}
	if _, err := NewArena(ArenaOptions{Options: Options{N: 2, Algorithm: Algorithm(99)}}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

// TestMutexFencing drives the public fencing surface end to end:
// monotone tokens, Holder, Revoke and the fenced release.
func TestMutexFencing(t *testing.T) {
	m, err := NewMutex(ArenaOptions{Options: Options{N: 2, Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	p0, p1 := m.Proc(0), m.Proc(1)
	tok, err := p0.Lock(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.Holder() != tok || p0.Token() != tok {
		t.Fatalf("Holder()/Token() = %d/%d, want %d", m.Holder(), p0.Token(), tok)
	}
	if !m.Revoke(tok) {
		t.Fatal("Revoke of held token failed")
	}
	if err := p0.Unlock(tok); !errors.Is(err, ErrFenced) {
		t.Fatalf("Unlock after Revoke = %v, want ErrFenced", err)
	}
	tok1, ok := p1.LockWhile(func() bool { return false })
	if !ok {
		t.Fatal("LockWhile failed on a free lock")
	}
	if p1.Token() != tok1 {
		t.Fatalf("Token() = %d, want %d", p1.Token(), tok1)
	}
	if tok1 <= tok {
		t.Fatalf("token %d not monotone across revocation (prev %d)", tok1, tok)
	}
	if err := p1.Unlock(tok1); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.Expirations != 1 {
		t.Errorf("expirations = %d, want 1", st.Expirations)
	}
}

// TestRegistryElectionEpochsPublic: the public Election surface —
// exactly one leader per epoch across real goroutines, repeat answers
// cached, Reset re-opens the name, stats expose the standing.
func TestRegistryElectionEpochsPublic(t *testing.T) {
	const k = 8
	reg, err := NewRegistry(RegistryOptions{
		ArenaOptions: ArenaOptions{Options: Options{N: k, Seed: 5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	e := reg.Election("leader/shard-7")
	procs := make([]*ElectionProc, k)
	for i := range procs {
		procs[i] = e.Proc(i)
	}
	for epoch := uint64(1); epoch <= 3; epoch++ {
		var leaders atomic.Int32
		var wg sync.WaitGroup
		for i := 0; i < k; i++ {
			wg.Add(1)
			go func(p *ElectionProc) {
				defer wg.Done()
				leader, got := p.Elect()
				if got != epoch {
					t.Errorf("participation in epoch %d, want %d", got, epoch)
				}
				if leader {
					leaders.Add(1)
				}
			}(procs[i])
		}
		wg.Wait()
		if leaders.Load() != 1 {
			t.Fatalf("epoch %d: %d leaders, want 1", epoch, leaders.Load())
		}
		// Repeat queries are stable within the epoch.
		for _, p := range procs {
			l1, _ := p.Elect()
			l2, _ := p.Elect()
			if l1 != l2 {
				t.Fatal("repeat Elect flipped within one epoch")
			}
		}
		es := reg.ElectionStats()
		if len(es) != 1 || !es[0].Decided || es[0].Epoch != epoch {
			t.Fatalf("ElectionStats = %+v, want decided epoch %d", es, epoch)
		}
		if next, err := e.Reset(epoch); err != nil || next != epoch+1 {
			t.Fatalf("Reset(%d) = (%d, %v)", epoch, next, err)
		}
	}
	if _, err := e.Reset(1); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("stale Reset error = %v, want ErrStaleEpoch", err)
	}
	reg.Close()
}

// TestRegistryEvictionPublic: MaxIdle + Evict through the public
// wrappers, including the ErrRetired path and the eviction counters.
func TestRegistryEvictionPublic(t *testing.T) {
	reg, err := NewRegistry(RegistryOptions{
		ArenaOptions: ArenaOptions{Options: Options{N: 2, Seed: 9}},
		MaxIdle:      1, // nanosecond: idle immediately
	})
	if err != nil {
		t.Fatal(err)
	}
	m := reg.Mutex("cold")
	p := m.Proc(0)
	tok, err := p.Lock(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Unlock(tok); err != nil {
		t.Fatal(err)
	}
	reg.Evict() // stamps activity
	if got := reg.Evict(); got != 1 {
		t.Fatalf("second Evict() = %d, want 1", got)
	}
	if !m.Retired() {
		t.Fatal("evicted mutex not Retired")
	}
	if _, err := p.Lock(context.Background()); !errors.Is(err, ErrRetired) {
		t.Fatalf("Lock on evicted mutex = %v, want ErrRetired", err)
	}
	if reg.Evictions() != 1 {
		t.Fatalf("Evictions() = %d, want 1", reg.Evictions())
	}
	// The name is reborn on next lookup.
	p2 := reg.Mutex("cold").Proc(0)
	tok2, err := p2.Lock(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := p2.Unlock(tok2); err != nil {
		t.Fatal(err)
	}
}

// TestSeedDecorrelation: with Seed zero, object seeds are resolved at
// construction (crypto/rand bootstrap) — distinct, nonzero, and stable
// across every Proc of one object.
func TestSeedDecorrelation(t *testing.T) {
	seen := map[int64]bool{}
	for i := 0; i < 32; i++ {
		o := (Options{N: 2}).resolve()
		if o.Seed == 0 {
			t.Fatal("resolved seed is zero")
		}
		if seen[o.Seed] {
			t.Fatalf("seed %d repeated within 32 constructions", o.Seed)
		}
		seen[o.Seed] = true
	}
	// An explicit seed survives resolution untouched.
	if o := (Options{N: 2, Seed: 77}).resolve(); o.Seed != 77 {
		t.Fatalf("explicit seed rewritten to %d", o.Seed)
	}
}
