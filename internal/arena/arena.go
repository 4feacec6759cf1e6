// Package arena turns the repository's one-shot randomized TAS objects
// into a long-lived synchronization service.
//
// The paper's objects (and every construction in internal/core, ratrace,
// agtv, ...) are consumed by a single election: after one process wins,
// the register state is spent. The classic way to serve sustained traffic
// from such primitives — as in the RatRace line of work and
// Giakkoupis–Woelfel's "Efficient Randomized Test-And-Set
// Implementations" — is chaining: the winner of round i installs a fresh
// TAS instance for round i+1. Allocating a fresh instance per round would
// cost O(n) registers per acquisition, so the Arena amortizes it away:
//
//   - An Arena is a sharded pool of pre-allocated slots. Each Slot owns a
//     private concurrent.Space plus a TAS object built on it by a
//     caller-supplied factory.
//   - Releasing a slot calls Space.Reset (the register-reuse hook), which
//     restores every register to its initial value, and pushes the slot
//     onto its shard's free list. Acquiring a slot is an O(1) lock-free
//     pop; construction only happens when the whole pool is drained.
//   - The free list is a Treiber stack made ABA-safe with a packed
//     {tag, index} head word: every successful CAS increments the tag, so
//     a recycled slot can never be confused with its earlier incarnation.
//
// Every slot fronts its election with the constant-step uncontended
// doorway (tas.FastPath), and the arena's callers step through the
// doorway's concrete entry, TAS.TASFastAbortable — the only concrete
// step code in the repository. Every acquisition runs the doorway, and
// it is only a handful of steps, so its devirtualized registers pay off;
// the factory's elector behind it runs only under contention and is
// called through its portable Elect. The doorway is also what makes
// every slot abortable.
//
// The Mutex in this package chains arena slots into a long-lived lock;
// the public surface is re-exported through the root randtas package.
package arena

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/concurrent"
	"repro/internal/tas"
)

// Factory builds a fresh one-shot leader election for n processes on the
// given space; the arena fronts it with the uncontended doorway and turns
// it into a TAS object itself.
// Because recycling is implemented as Space.Reset, the returned elector
// must keep ALL mutable election state in registers allocated on s
// during this call (the repository-wide convention): the space is sealed
// right after the factory returns, and plain struct fields survive
// recycling unchanged. (Diagnostic fields like ratrace's BackupFellOff
// flag are sticky across rounds for exactly that reason — harmless for
// correctness, but don't put real election state there.)
type Factory func(s *concurrent.Space, n int) tas.LeaderElector

// Config sizes an Arena.
type Config struct {
	// N is the maximum number of processes that may contend on any slot
	// (process ids 0..N-1). Required.
	N int
	// Shards is the number of independent free lists. More shards means
	// less CAS contention on the list heads under heavy traffic. If
	// zero, DefaultShards is used.
	Shards int
	// Prealloc is the number of slots built up front per shard. If zero,
	// DefaultPrealloc is used. A Mutex needs at least 2 live slots
	// (current round + next round) to recycle steadily.
	Prealloc int
	// Factory builds each slot's leader election. Required.
	Factory Factory
	// CountRMRs builds every slot's register space with RMR accounting
	// (concurrent.Config.CountRMRs): each process's handle then tallies
	// remote memory references in the CC and DSM models alongside its
	// step count — see MutexProc.CCRMRs/DSMRMRs. Off by default; the
	// accounting branch costs a flag test per step, so leave it off when
	// only throughput matters.
	CountRMRs bool
}

// DefaultShards and DefaultPrealloc size an Arena when Config leaves the
// fields zero. Prealloc 4 covers a Mutex's steady state (current round,
// next round, and slack for stragglers still draining an old round).
const (
	DefaultShards   = 4
	DefaultPrealloc = 4
)

// Slot is one recyclable TAS instance: a private register space plus the
// object built on it. A Slot acquired from an Arena is in its pristine
// one-shot state; return it with Arena.Put once every process that
// touched it is done.
type Slot struct {
	// Obj is the one-shot TAS object. After Put, the slot may be handed
	// out again with fully reset registers.
	Obj *tas.TAS

	space *concurrent.Space
	shard uint32 // home shard, so Put returns it where it came from
	idx   uint32 // 1-based position in its shard's table (0 = none)
	next  atomic.Uint32
}

// Registers reports the slot's register footprint.
func (s *Slot) Registers() int { return s.space.Registers() }

// ShardStats are monotone per-shard counters. Snapshot via Arena.Stats.
type ShardStats struct {
	// Hits counts Gets served by this shard's own free list.
	Hits uint64
	// Steals counts Gets served by raiding another shard's free list
	// after the home shard came up empty.
	Steals uint64
	// Misses counts Gets that found every free list empty and had to
	// construct a brand-new slot.
	Misses uint64
	// Puts counts slots recycled into this shard.
	Puts uint64
	// Slots is the number of slots homed in this shard (preallocated +
	// constructed on miss).
	Slots uint64
	// Registers is the total register footprint of this shard's slots.
	Registers uint64
}

// packed free-list head: high 32 bits are an ABA tag bumped on every
// successful CAS, low 32 bits are the 1-based slot index (0 = empty).
func packHead(tag uint32, idx uint32) uint64 { return uint64(tag)<<32 | uint64(idx) }
func unpackHead(h uint64) (tag uint32, idx uint32) {
	return uint32(h >> 32), uint32(h)
}

type shard struct {
	head atomic.Uint64 // packed {tag, idx}

	// table maps 1-based slot indices to slots. Reads are lock-free via
	// the atomic pointer; growth copies under mu (construction is rare —
	// only on pool exhaustion).
	table atomic.Pointer[[]*Slot]
	mu    sync.Mutex

	hits      atomic.Uint64
	steals    atomic.Uint64
	misses    atomic.Uint64
	puts      atomic.Uint64
	slots     atomic.Uint64
	registers atomic.Uint64

	_ [3]uint64 // keep shard heads off each other's cache lines
}

func (sh *shard) push(s *Slot) {
	for {
		old := sh.head.Load()
		tag, idx := unpackHead(old)
		s.next.Store(idx)
		if sh.head.CompareAndSwap(old, packHead(tag+1, s.idx)) {
			return
		}
	}
}

func (sh *shard) pop() *Slot {
	for {
		old := sh.head.Load()
		tag, idx := unpackHead(old)
		if idx == 0 {
			return nil
		}
		s := (*sh.table.Load())[idx-1]
		next := s.next.Load()
		if sh.head.CompareAndSwap(old, packHead(tag+1, next)) {
			return s
		}
	}
}

// register homes a freshly constructed slot in this shard, assigning its
// table index. Safe for concurrent callers; lock-free readers observe the
// new table via the atomic pointer before the slot can appear on the
// free list.
func (sh *shard) register(s *Slot) {
	sh.mu.Lock()
	var old []*Slot
	if p := sh.table.Load(); p != nil {
		old = *p
	}
	grown := make([]*Slot, len(old)+1)
	copy(grown, old)
	grown[len(old)] = s
	s.idx = uint32(len(grown)) // 1-based
	sh.table.Store(&grown)
	sh.mu.Unlock()
	sh.slots.Add(1)
	sh.registers.Add(uint64(s.Registers()))
}

// Arena is a sharded pool of recyclable TAS slots. All methods are safe
// for concurrent use.
type Arena struct {
	n       int
	factory Factory
	shards  []shard
	acct    bool
}

// New builds an arena and preallocates cfg.Prealloc slots per shard.
func New(cfg Config) (*Arena, error) {
	if cfg.N < 1 {
		return nil, fmt.Errorf("arena: Config.N must be ≥ 1, got %d", cfg.N)
	}
	if cfg.Factory == nil {
		return nil, fmt.Errorf("arena: Config.Factory is required")
	}
	if cfg.Shards < 0 || cfg.Prealloc < 0 {
		return nil, fmt.Errorf("arena: Shards (%d) and Prealloc (%d) must be non-negative", cfg.Shards, cfg.Prealloc)
	}
	shards := cfg.Shards
	if shards == 0 {
		shards = DefaultShards
	}
	prealloc := cfg.Prealloc
	if prealloc == 0 {
		prealloc = DefaultPrealloc
	}
	a := &Arena{
		n:       cfg.N,
		factory: cfg.Factory,
		shards:  make([]shard, shards),
		acct:    cfg.CountRMRs,
	}
	for i := range a.shards {
		for j := 0; j < prealloc; j++ {
			s := a.build(uint32(i))
			a.shards[i].push(s)
		}
	}
	return a, nil
}

// N returns the per-slot process bound.
func (a *Arena) N() int { return a.n }

// Shards returns the shard count.
func (a *Arena) Shards() int { return len(a.shards) }

func (a *Arena) build(shardIdx uint32) *Slot {
	space := concurrent.NewSpaceConfig(concurrent.Config{CountRMRs: a.acct})
	obj := tas.New(space, tas.NewFastPath(space, a.factory(space, a.n)))
	// The slot's register footprint is now fixed; any later NewRegister
	// would escape Reset and race with the bank sweep, so seal it.
	space.Seal()
	s := &Slot{Obj: obj, space: space, shard: shardIdx}
	a.shards[shardIdx].register(s)
	return s
}

// Get acquires a pristine slot in O(1): pop the hinted shard's free list,
// raid the other shards if it is empty, and only construct a new slot
// when the entire pool is drained. hint is any int (typically the calling
// process id); it is reduced mod the shard count.
func (a *Arena) Get(hint int) *Slot {
	home := uint32(uint(hint) % uint(len(a.shards)))
	sh := &a.shards[home]
	if s := sh.pop(); s != nil {
		sh.hits.Add(1)
		return s
	}
	for off := 1; off < len(a.shards); off++ {
		victim := &a.shards[(int(home)+off)%len(a.shards)]
		if s := victim.pop(); s != nil {
			sh.steals.Add(1)
			return s
		}
	}
	sh.misses.Add(1)
	return a.build(home)
}

// Put resets the slot's registers and recycles it into its home shard's
// free list. Only the dirty window — registers actually written since
// the slot was handed out — is rewritten, so recycling costs
// O(touched), not O(footprint). The caller must guarantee that no
// process is still executing on the slot's object (the Mutex round
// protocol enforces this with refcounts). A slot must not be Put twice
// without an intervening Get.
func (a *Arena) Put(s *Slot) {
	s.space.Reset()
	sh := &a.shards[s.shard]
	sh.push(s)
	sh.puts.Add(1)
}

// Stats snapshots every shard's counters.
func (a *Arena) Stats() []ShardStats {
	out := make([]ShardStats, len(a.shards))
	for i := range a.shards {
		sh := &a.shards[i]
		out[i] = ShardStats{
			Hits:      sh.hits.Load(),
			Steals:    sh.steals.Load(),
			Misses:    sh.misses.Load(),
			Puts:      sh.puts.Load(),
			Slots:     sh.slots.Load(),
			Registers: sh.registers.Load(),
		}
	}
	return out
}

// TotalStats sums Stats across shards.
func (a *Arena) TotalStats() ShardStats {
	var t ShardStats
	for _, s := range a.Stats() {
		t.Hits += s.Hits
		t.Steals += s.Steals
		t.Misses += s.Misses
		t.Puts += s.Puts
		t.Slots += s.Slots
		t.Registers += s.Registers
	}
	return t
}
