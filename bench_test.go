// Benchmarks of the library and the simulator engine. Simulator benches
// report steps/op (the paper's measure — wall time on the simulator is not
// the quantity of interest); concurrent benches report real throughput.
// The paper's claims are checked by tasbench's claims table
// (go run ./cmd/tasbench), not here.
//
// Run: go test -bench=. -benchmem .
package randtas

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/combiner"
	"repro/internal/concurrent"
	"repro/internal/core"
	"repro/internal/ratrace"
	"repro/internal/shm"
	"repro/internal/sim"
	"repro/internal/tas"
)

// The TAS-from-LE transformation overhead.
func BenchmarkTASFromLE(b *testing.B) {
	const k = 64
	sys := sim.NewSystem(sim.Config{N: k, Seed: 0, Reuse: true})
	defer sys.Release()
	obj := tas.New(sys, core.NewLogStar(sys, k))
	body := func(h shm.Handle) {
		obj.TAS(h)
	}
	var res sim.Result
	totalMax := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Reset(int64(i))
		sys.RunInto(sim.NewRandomOblivious(int64(i)), body, &res)
		totalMax += res.MaxSteps
	}
	b.ReportMetric(float64(totalMax)/float64(b.N), "maxsteps/op")
}

// Real-backend throughput: the paper's TAS versus a plain
// CompareAndSwap TAS (the primitive the paper's model does not allow).
func BenchmarkConcurrentTAS(b *testing.B) {
	for _, algo := range []Algorithm{Combined, LogStar, RatRace, AGTV} {
		b.Run(algo.String(), func(b *testing.B) {
			const procs = 8
			for i := 0; i < b.N; i++ {
				obj, err := NewTAS(Options{N: procs, Algorithm: algo, Seed: int64(i) + 1})
				if err != nil {
					b.Fatal(err)
				}
				var wg sync.WaitGroup
				var zeros int32
				for p := 0; p < procs; p++ {
					wg.Add(1)
					go func(tp *TASProc) {
						defer wg.Done()
						if tp.TAS() == 0 {
							atomic.AddInt32(&zeros, 1)
						}
					}(obj.Proc(p))
				}
				wg.Wait()
				if zeros != 1 {
					b.Fatalf("%d winners", zeros)
				}
			}
		})
	}
}

func BenchmarkCASBaselineTAS(b *testing.B) {
	const procs = 8
	for i := 0; i < b.N; i++ {
		var bit int32
		var wg sync.WaitGroup
		var zeros int32
		for p := 0; p < procs; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if atomic.CompareAndSwapInt32(&bit, 0, 1) {
					atomic.AddInt32(&zeros, 1)
				}
			}()
		}
		wg.Wait()
		if zeros != 1 {
			b.Fatalf("%d winners", zeros)
		}
	}
}

// Ablation — the simulator trial engine before/after (PR 3): one full
// harness trial per iteration on the representative cell (log* chain,
// n=1024, k=16, random-oblivious schedule). "fresh" pays the pre-PR driver
// shape — a new System and a full algorithm construction per trial —
// while "pooled" Reset-recycles one System as harness.Run's workers do.
// "build" is the construction a harness.Run worker pays once per cell for
// sim-montecarlo's ratrace-se cell (32,860 registers), with no trial.
// "combined-pooled" is "pooled" on sim-montecarlo's combined cell
// (space-efficient RatRace with log*, n=256), whose processes keep their
// combiner fibers parked between trials.
func BenchmarkSimTrial(b *testing.B) {
	const n, k = 1024, 16
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sys := sim.NewSystem(sim.Config{N: k, Seed: int64(i)})
			le := core.NewLogStar(sys, n)
			sys.Run(sim.NewRandomOblivious(int64(i)+977), func(h shm.Handle) {
				le.Elect(h)
			})
		}
	})
	// pooled Reset-recycles one System over trials of the elector build
	// makes on it.
	pooled := func(build func(s shm.Space) tas.LeaderElector) func(b *testing.B) {
		return func(b *testing.B) {
			sys := sim.NewSystem(sim.Config{N: k, Seed: 0, Reuse: true})
			defer sys.Release()
			le := build(sys)
			body := func(h shm.Handle) {
				le.Elect(h)
			}
			var res sim.Result
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys.Reset(int64(i))
				sys.RunInto(sim.NewRandomOblivious(int64(i)+977), body, &res)
			}
		}
	}
	b.Run("pooled", pooled(func(s shm.Space) tas.LeaderElector { return core.NewLogStar(s, n) }))
	b.Run("build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sys := sim.NewSystem(sim.Config{N: k, Seed: int64(i), Reuse: true})
			ratrace.NewSpaceEfficient(sys, n)
			sys.Release()
		}
	})
	b.Run("combined-pooled", pooled(func(s shm.Space) tas.LeaderElector {
		const n = 256
		return combiner.New(s, ratrace.NewSpaceEfficient(s, n), core.NewLogStar(s, n))
	}))
}

// Ablation — the simulator's step-handshake overhead: one scheduled write
// per iteration, the engine's cost per step.
func BenchmarkSimStepOverhead(b *testing.B) {
	sys := sim.NewSystem(sim.Config{N: 1, Seed: 1})
	r := sys.NewRegister(0)
	steps := b.N
	sys.Start(func(h shm.Handle) {
		for i := 0; i < steps; i++ {
			h.Write(r, 1)
		}
	})
	defer sys.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Step(0)
	}
}

// The arena subsystem: sustained Lock/Unlock traffic on the
// reusable TAS-chained Mutex. ReportAllocs demonstrates the arena's
// amortized O(1) allocations per operation: slots (with their O(n)
// register footprints) are recycled, so steady state allocates only the
// per-round bookkeeping, never a fresh TAS object. Every Algorithm runs
// behind the same doorway, so the rungs differ only in the inner election
// contended rounds fall through to.
func BenchmarkMutex(b *testing.B) {
	for algo := Combined; algo <= AGTV; algo++ {
		b.Run(algo.String(), func(b *testing.B) {
			benchMutexWorkload(b, algo)
		})
	}
}

// benchMutexWorkload is BenchmarkMutex's Lock/Unlock workload for one
// algorithm.
func benchMutexWorkload(b *testing.B, algo Algorithm) {
	n := 2 * runtime.GOMAXPROCS(0) // ids for however many workers RunParallel spawns
	m, err := NewMutex(ArenaOptions{Options: Options{N: n, Algorithm: algo, Seed: 1}})
	if err != nil {
		b.Fatal(err)
	}
	var nextID atomic.Int64
	counter := 0 // guarded by m; validates exclusion during the bench
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := int(nextID.Add(1)) - 1
		if id >= n {
			b.Errorf("more parallel workers than proc ids (%d)", n)
			return
		}
		p := m.Proc(id)
		for pb.Next() {
			tok, err := p.Lock(context.Background())
			if err != nil {
				b.Error(err)
				return
			}
			counter++
			if err := p.Unlock(tok); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	if counter != b.N {
		b.Fatalf("counter = %d, want %d", counter, b.N)
	}
	st := m.Stats()
	b.ReportMetric(float64(st.Contended)/float64(b.N), "lostTAS/op")
	b.ReportMetric(float64(m.m.Arena().TotalStats().Slots), "slots")
}

// Register-bank recycling in isolation: a 512-register space with 8
// registers touched per round. The dirty-window Reset pays O(touched),
// not O(footprint).
func BenchmarkSpaceReset(b *testing.B) {
	const regs, touched = 512, 8
	b.Run("dirty-window", func(b *testing.B) {
		s := concurrent.NewSpace()
		rs := make([]shm.Register, regs)
		for i := range rs {
			rs[i] = s.NewRegister(0)
		}
		s.Seal()
		h := concurrent.NewHandle(0, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < touched; j++ {
				h.Write(rs[(i*7+j*61)%regs], 1)
			}
			s.Reset()
		}
	})
}

// The arena pool in isolation: Get/Put must be O(1) and
// allocation-free once the pool is warm.
func BenchmarkArenaGetPut(b *testing.B) {
	a, err := NewArena(ArenaOptions{Options: Options{N: 8, Seed: 1}})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		hint := int(time.Now().UnixNano()) // static per-worker shard hint
		for pb.Next() {
			s := a.a.Get(hint)
			a.a.Put(s)
		}
	})
	b.StopTimer()
	if misses := a.Stats().Misses; misses > uint64(2*runtime.GOMAXPROCS(0)) {
		b.Fatalf("%d construction misses on a warm pool", misses)
	}
}
