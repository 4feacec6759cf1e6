// Benchmarks regenerating the experiment series of EXPERIMENTS.md, one per
// table/claim. Simulator benches report steps/op (the paper's measure —
// wall time on the simulator is not the quantity of interest); concurrent
// benches report real throughput.
//
// Run: go test -bench=. -benchmem .
package randtas

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/combiner"
	"repro/internal/concurrent"
	"repro/internal/core"
	"repro/internal/groupelect"
	"repro/internal/lowerbound"
	"repro/internal/ratrace"
	"repro/internal/shm"
	"repro/internal/sim"
	"repro/internal/tas"
	"repro/internal/twoproc"
)

// benchLE runs one leader election per iteration at contention k and
// reports the mean max-steps metric (the paper's expected individual step
// complexity). The System and elector are constructed once and
// Reset-recycled per iteration, as the harness trial driver does.
func benchLE(b *testing.B, k, n int, mk func(s shm.Space) interface {
	Elect(h shm.Handle) bool
}, mkAdv func(seed int64) sim.Adversary) {
	b.Helper()
	sys := sim.NewSystem(sim.Config{N: k, Seed: 0, Reuse: true})
	defer sys.Release()
	le := mk(sys)
	body := func(h shm.Handle) {
		le.Elect(h)
	}
	var res sim.Result
	totalMax := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Reset(int64(i))
		sys.RunInto(mkAdv(int64(i)+977), body, &res)
		totalMax += res.MaxSteps
	}
	b.ReportMetric(float64(totalMax)/float64(b.N), "maxsteps/op")
}

func randomAdv(seed int64) sim.Adversary { return sim.NewRandomOblivious(seed) }

// E1 — Lemma 2.2: Figure 1 group election performance parameter.
func BenchmarkGroupElectFig1(b *testing.B) {
	for _, k := range []int{8, 64, 512} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			sys := sim.NewSystem(sim.Config{N: k, Seed: 0, Reuse: true})
			defer sys.Release()
			ge := groupelect.NewFig1(sys, 4096)
			elected := 0
			body := func(h shm.Handle) {
				if ge.Elect(h) {
					elected++
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys.Reset(int64(i))
				sys.Run(sim.NewRandomOblivious(int64(i)), body)
			}
			b.ReportMetric(float64(elected)/float64(b.N), "elected/op")
		})
	}
}

// E2 — Theorem 2.3: the O(log* k) chain.
func BenchmarkLogStarLE(b *testing.B) {
	for _, k := range []int{8, 64, 512, 4096} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			benchLE(b, k, 4096, func(s shm.Space) interface {
				Elect(h shm.Handle) bool
			} {
				return core.NewLogStar(s, 4096)
			}, randomAdv)
		})
	}
}

// E3 — Section 2.3 / Theorem 2.4: sifting chains.
func BenchmarkSiftingLE(b *testing.B) {
	for _, k := range []int{8, 512} {
		b.Run(fmt.Sprintf("nonadaptive/k=%d", k), func(b *testing.B) {
			benchLE(b, k, 4096, func(s shm.Space) interface {
				Elect(h shm.Handle) bool
			} {
				return core.NewSifting(s, 4096)
			}, randomAdv)
		})
		b.Run(fmt.Sprintf("adaptive/k=%d", k), func(b *testing.B) {
			benchLE(b, k, 4096, func(s shm.Space) interface {
				Elect(h shm.Handle) bool
			} {
				return core.NewAdaptiveSifting(s, 4096)
			}, randomAdv)
		})
	}
}

// E4 — Section 3: space-efficient RatRace under the adaptive lockstep
// schedule, plus the space census of both variants.
func BenchmarkRatRaceSE(b *testing.B) {
	for _, k := range []int{8, 64, 512} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			benchLE(b, k, 1024, func(s shm.Space) interface {
				Elect(h shm.Handle) bool
			} {
				return ratrace.NewSpaceEfficient(s, 1024)
			}, func(int64) sim.Adversary { return sim.NewLockstep() })
		})
	}
}

func BenchmarkRatRaceSpace(b *testing.B) {
	for _, n := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("original/n=%d", n), func(b *testing.B) {
			regs := 0
			for i := 0; i < b.N; i++ {
				sys := sim.NewSystem(sim.Config{N: 1, Seed: 1})
				ratrace.NewOriginal(sys, n)
				regs = sys.RegisterCount()
			}
			b.ReportMetric(float64(regs), "registers")
		})
		b.Run(fmt.Sprintf("modified/n=%d", n), func(b *testing.B) {
			regs := 0
			for i := 0; i < b.N; i++ {
				sys := sim.NewSystem(sim.Config{N: 1, Seed: 1})
				ratrace.NewSpaceEfficient(sys, n)
				regs = sys.RegisterCount()
			}
			b.ReportMetric(float64(regs), "registers")
		})
	}
}

// E5 — Theorem 4.1: the combined algorithm under the adaptive attack that
// breaks the plain chain.
func BenchmarkCombinerAttack(b *testing.B) {
	for _, k := range []int{16, 64} {
		b.Run(fmt.Sprintf("naive/k=%d", k), func(b *testing.B) {
			sys := sim.NewSystem(sim.Config{N: k, Seed: 0, Reuse: true})
			defer sys.Release()
			chain := core.NewLogStar(sys, k)
			body := func(h shm.Handle) {
				chain.Elect(h)
			}
			var res sim.Result
			totalMax := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys.Reset(int64(i))
				sys.RunInto(sim.NewAscendingLocation(chain.IsArrayRegister), body, &res)
				totalMax += res.MaxSteps
			}
			b.ReportMetric(float64(totalMax)/float64(b.N), "maxsteps/op")
		})
		b.Run(fmt.Sprintf("combined/k=%d", k), func(b *testing.B) {
			sys := sim.NewSystem(sim.Config{N: k, Seed: 0, Reuse: true})
			defer sys.Release()
			rr := ratrace.NewSpaceEfficient(sys, k)
			chain := core.NewLogStar(sys, k)
			comb := combiner.New(sys, rr, chain)
			body := func(h shm.Handle) {
				comb.Elect(h)
			}
			var res sim.Result
			totalMax := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys.Reset(int64(i))
				sys.RunInto(sim.NewAscendingLocation(chain.IsArrayRegister), body, &res)
				totalMax += res.MaxSteps
			}
			b.ReportMetric(float64(totalMax)/float64(b.N), "maxsteps/op")
		})
	}
}

// E6 — Theorem 5.1: one full covering-adversary construction per iteration.
func BenchmarkCoveringAdversary(b *testing.B) {
	for _, n := range []int{16, 32} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			covered := 0
			for i := 0; i < b.N; i++ {
				res := lowerbound.RunCovering(n, int64(i)+1, func(s shm.Space) func(shm.Handle) {
					le := core.NewLogStar(s, n)
					return func(h shm.Handle) { le.Elect(h) }
				})
				covered = res.CoveredRegisters
			}
			b.ReportMetric(float64(covered), "covered-registers")
		})
	}
}

// E7 — Theorem 6.1: the schedule-enumeration experiment.
func BenchmarkTwoProcLowerBound(b *testing.B) {
	for _, t := range []int{2, 4} {
		b.Run(fmt.Sprintf("t=%d", t), func(b *testing.B) {
			var maxProb float64
			for i := 0; i < b.N; i++ {
				p := lowerbound.TwoProcessTimeBound(t, 40, int64(i)+1)
				maxProb = p.MaxProb
			}
			b.ReportMetric(maxProb, "max-prob")
		})
	}
}

// E8 — Claim 3.2: leaf-occupancy tail sampling.
func BenchmarkLeafOccupancy(b *testing.B) {
	const n = 256
	height := 8
	threshold := 4 * height
	rng := rand.New(rand.NewSource(11))
	exceed := 0
	for i := 0; i < b.N; i++ {
		blocks := make([]int, n/height+1)
		for ball := 0; ball < n; ball++ {
			blocks[rng.Intn(n)/height]++
		}
		for _, c := range blocks {
			if c > threshold {
				exceed++
				break
			}
		}
	}
	b.ReportMetric(float64(exceed)/float64(b.N), "overflow-frac")
}

// E9 — the adversary-separation attacks.
func BenchmarkAdversarySeparation(b *testing.B) {
	const k = 64
	b.Run("fig1-ascending", func(b *testing.B) {
		sys := sim.NewSystem(sim.Config{N: k, Seed: 0, Reuse: true})
		defer sys.Release()
		ge := groupelect.NewFig1(sys, 1024)
		ids := map[int]bool{}
		for _, id := range ge.ArrayRegisterIDs() {
			ids[id] = true
		}
		elected := 0
		body := func(h shm.Handle) {
			if ge.Elect(h) {
				elected++
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sys.Reset(int64(i))
			sys.Run(sim.NewAscendingLocation(func(r int) bool { return ids[r] }), body)
		}
		b.ReportMetric(float64(elected)/float64(b.N), "elected/op")
	})
	b.Run("sifter-readersfirst", func(b *testing.B) {
		sys := sim.NewSystem(sim.Config{N: k, Seed: 0, Reuse: true})
		defer sys.Release()
		ge := groupelect.NewSifter(sys, groupelect.SifterPi(k))
		elected := 0
		body := func(h shm.Handle) {
			if ge.Elect(h) {
				elected++
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sys.Reset(int64(i))
			sys.Run(sim.NewReadersFirst(), body)
		}
		b.ReportMetric(float64(elected)/float64(b.N), "elected/op")
	})
}

// E11 — the two-process building block.
func BenchmarkTwoProcLE(b *testing.B) {
	sys := sim.NewSystem(sim.Config{N: 2, Seed: 0, Reuse: true})
	defer sys.Release()
	le := twoproc.New(sys)
	body := func(h shm.Handle) {
		le.Elect(h, h.ID())
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

// E12 — the TAS-from-LE transformation overhead.
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

// E13 — real-backend throughput: the paper's TAS versus a plain
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
	b.Run("pooled", func(b *testing.B) {
		sys := sim.NewSystem(sim.Config{N: k, Seed: 0, Reuse: true})
		defer sys.Release()
		le := core.NewLogStar(sys, n)
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
	})
}

// Ablation — the simulator's step-handshake overhead (DESIGN.md).
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

// E14 — the arena subsystem: sustained Lock/Unlock traffic on the
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

// E14b — the arena pool in isolation: Get/Put must be O(1) and
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
