// Package randtas provides randomized Test-And-Set and Leader Election
// objects implemented from atomic registers only — no compare-and-swap —
// reproducing "On the Time and Space Complexity of Randomized
// Test-And-Set" by Giakkoupis and Woelfel (PODC 2012).
//
// A Test-And-Set object stores a bit, initially 0; TAS() atomically sets
// it and returns the previous value, so exactly one caller ever receives
// 0. Deterministic wait-free TAS from registers is impossible even for
// two processes; the algorithms here are randomized and wait-free with
// the paper's expected step complexities:
//
//	Algorithm          Expected steps        Adversary model     Registers
//	LogStar            O(log* k)             location-oblivious  O(n)
//	Sifting            O(log log n)          R/W-oblivious       O(n)
//	AdaptiveSifting    O(log log k)          R/W-oblivious       O(n)
//	RatRace            O(log k)              adaptive            O(n)
//	RatRaceOriginal    O(log k)              adaptive            O(n³)
//	AGTV               O(log n)              adaptive            O(n)
//	Combined           O(log* k) weak /      both                O(n)
//	                   O(log k) adaptive
//
// (k is the contention — the number of processes that actually
// participate; n is the maximum number of processes.)
//
// # Usage
//
// Construct an object for n processes, hand each participating goroutine
// its own Proc, and call TAS or Elect at most once per Proc:
//
//	obj, err := randtas.NewTAS(randtas.Options{N: 8})
//	if err != nil {
//	    log.Fatal(err)
//	}
//	var wg sync.WaitGroup
//	for i := 0; i < 8; i++ {
//	    wg.Add(1)
//	    go func(p *randtas.TASProc) {
//	        defer wg.Done()
//	        if p.TAS() == 0 {
//	            // unique winner
//	        }
//	    }(obj.Proc(i))
//	}
//	wg.Wait()
//
// TAS and LeaderElection objects are one-shot, exactly as in the paper.
// For long-lived synchronization build an Arena — a sharded pool of
// recyclable TAS instances — and chain them into a reusable Mutex. The
// v2 locking surface is fenced and context-aware: every acquisition
// returns a strictly monotone fencing Token, and releases verify it:
//
//	m, err := randtas.NewMutex(randtas.ArenaOptions{Options: randtas.Options{N: 8}})
//	if err != nil {
//	    log.Fatal(err)
//	}
//	p := m.Proc(0) // one MutexProc per goroutine
//	tok, err := p.Lock(ctx)
//	if err != nil {
//	    return err // ctx done, or the lock was evicted
//	}
//	// critical section; pass tok to downstream resources so they can
//	// reject writers whose lease was revoked
//	if err := p.Unlock(tok); err == randtas.ErrFenced {
//	    // the lock was taken away (lease expiry) while we held it
//	}
//
// Named objects live in a Registry (the in-process face of the tasd
// lock service): named fenced mutexes, and named re-electable Elections
// whose epochs preserve the paper's one-shot contract — one TAS slot
// per epoch, exactly one leader per epoch, Reset retires the epoch's
// slot to the arena and installs a fresh one.
//
// The step-complexity experiments of the paper run on a deterministic
// simulator with adversarial schedulers; see cmd/tasbench and the
// internal/sim package.
package randtas

import (
	"context"
	crand "crypto/rand" //taslint:allow detrand -- seed bootstrap only: one read per TAS object to seed the splitmix64 streams, never per-flip
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/agtv"
	"repro/internal/arena"
	"repro/internal/combiner"
	"repro/internal/concurrent"
	"repro/internal/core"
	"repro/internal/dst"
	"repro/internal/ratrace"
	"repro/internal/rng"
	"repro/internal/shm"
	"repro/internal/tas"
)

// Algorithm selects which of the paper's constructions backs an object.
type Algorithm int

// Available algorithms. The zero value selects Combined, the
// Corollary 4.2 construction with the best guarantees across adversary
// models.
const (
	// Combined interleaves RatRace with the log* chain (Theorem 4.1 /
	// Corollary 4.2): O(log* k) against a location-oblivious scheduler
	// and O(log k) against an adaptive one.
	Combined Algorithm = iota
	// LogStar is the Theorem 2.3 chain: O(log* k) expected steps against
	// the location-oblivious adversary.
	LogStar
	// Sifting is the Section 2.3 non-adaptive chain: O(log log n)
	// against the R/W-oblivious adversary.
	Sifting
	// AdaptiveSifting is the Theorem 2.4 cascade: O(log log k) against
	// the R/W-oblivious adversary.
	AdaptiveSifting
	// RatRace is the paper's Section 3 space-efficient RatRace:
	// O(log k) against the adaptive adversary, Θ(n) registers.
	RatRace
	// RatRaceOriginal is the 2010 RatRace baseline: same step bound,
	// Θ(n³) registers. Only sensible for small n.
	RatRaceOriginal
	// AGTV is the 1992 tournament baseline: O(log n) steps.
	AGTV
)

func (a Algorithm) String() string {
	switch a {
	case Combined:
		return "combined"
	case LogStar:
		return "logstar"
	case Sifting:
		return "sifting"
	case AdaptiveSifting:
		return "adaptive-sifting"
	case RatRace:
		return "ratrace"
	case RatRaceOriginal:
		return "ratrace-original"
	case AGTV:
		return "agtv"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// ParseAlgorithm maps an algorithm's String name ("combined",
// "logstar", "sifting", "adaptive-sifting", "ratrace",
// "ratrace-original", "agtv") back to its Algorithm value — the one
// table every CLI flag parses against.
func ParseAlgorithm(name string) (Algorithm, error) {
	for a := Combined; a <= AGTV; a++ {
		if a.String() == name {
			return a, nil
		}
	}
	return 0, fmt.Errorf("randtas: unknown algorithm %q (want combined, logstar, sifting, adaptive-sifting, ratrace, ratrace-original or agtv)", name)
}

// Token is a fencing token: the strictly monotone sequence number of the
// TAS round (or election epoch) that granted an acquisition. A resource
// downstream of a lock admits a write only if its token is the largest
// it has ever seen; a holder whose lease was revoked then cannot corrupt
// state, no matter how late its writes arrive. Zero is never a valid
// token.
type Token = uint64

// Lock-ownership errors, re-exported from the arena layer. The tasd
// server maps ErrFenced onto the wire's StatusFenced.
var (
	// ErrFenced reports a release (or other fenced operation) whose
	// token was superseded: the lease expired, or the lock was revoked
	// or evicted while held.
	ErrFenced = arena.ErrFenced
	// ErrNotHeld reports an Unlock by a proc that holds nothing.
	ErrNotHeld = arena.ErrNotHeld
	// ErrBadToken reports an Unlock whose token does not match the held
	// round — a stale token from an earlier acquisition.
	ErrBadToken = arena.ErrBadToken
	// ErrAborted reports a Lock(nil) cut short by MutexProc.Abort.
	ErrAborted = arena.ErrAborted
	// ErrRetired reports an operation on a mutex that was evicted from
	// its registry; look the name up again for a fresh instance.
	ErrRetired = arena.ErrRetired
	// ErrStaleEpoch reports an Election.Reset that lost: the given epoch
	// was already reset past.
	ErrStaleEpoch = arena.ErrStaleEpoch
)

// Options configures a leader election or TAS object.
type Options struct {
	// N is the maximum number of processes (Proc ids 0..N-1). Required.
	N int
	// Algorithm picks the construction; the zero value is Combined.
	Algorithm Algorithm
	// Seed, if non-zero, makes all coin flips deterministic (useful for
	// tests). With Seed zero every object draws a random seed at
	// construction (crypto/rand bootstrap), and per-proc streams are
	// decorrelated from it by a splitmix64 finalizer — no global
	// math/rand state is involved.
	Seed int64
}

// seedCounter backs the crypto/rand-failure fallback in randomSeed.
var seedCounter atomic.Uint64

// randomSeed draws a fresh nonzero object seed. crypto/rand gives
// cross-object decorrelation by construction; on the (practically
// unobservable) error path a golden-ratio counter mixed with the wall
// clock keeps seeds distinct within and across processes.
func randomSeed() int64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err == nil {
		if s := int64(binary.LittleEndian.Uint64(b[:]) >> 1); s != 0 {
			return s
		}
	}
	g := rng.New(seedCounter.Add(0x9e3779b97f4a7c15) ^ uint64(time.Now().UnixNano()))
	return int64(g.Next()>>1) | 1
}

// resolve pins a random seed at object construction when none was
// given, so every Proc of one object shares a deterministic base and
// distinct objects are decorrelated by construction.
func (o Options) resolve() Options {
	if o.Seed == 0 {
		o.Seed = randomSeed()
	}
	return o
}

// buildElector constructs the chosen algorithm on s.
func buildElector(s shm.Space, opts Options) (tas.LeaderElector, error) {
	if opts.N < 1 {
		return nil, fmt.Errorf("randtas: Options.N must be ≥ 1, got %d", opts.N)
	}
	n := opts.N
	switch opts.Algorithm {
	case Combined:
		rr := ratrace.NewSpaceEfficient(s, n)
		return combiner.New(s, rr, core.NewLogStar(s, n)), nil
	case LogStar:
		return core.NewLogStar(s, n), nil
	case Sifting:
		return core.NewSifting(s, n), nil
	case AdaptiveSifting:
		return core.NewAdaptiveSifting(s, n), nil
	case RatRace:
		return ratrace.NewSpaceEfficient(s, n), nil
	case RatRaceOriginal:
		return ratrace.NewOriginal(s, n), nil
	case AGTV:
		return agtv.New(s, n), nil
	default:
		return nil, fmt.Errorf("randtas: unknown algorithm %v", opts.Algorithm)
	}
}

// LeaderElection is a one-shot leader election for N processes on real
// atomic registers.
type LeaderElection struct {
	opts  Options
	space *concurrent.Space
	le    tas.LeaderElector
}

// NewLeaderElection builds a leader election object.
func NewLeaderElection(opts Options) (*LeaderElection, error) {
	opts = opts.resolve()
	space := concurrent.NewSpace()
	le, err := buildElector(space, opts)
	if err != nil {
		return nil, err
	}
	space.Seal() // footprint fixed before any goroutine steps
	return &LeaderElection{opts: opts, space: space, le: le}, nil
}

// Registers returns the object's register footprint.
func (l *LeaderElection) Registers() int { return l.space.Registers() }

// Proc returns the context for process id (0 ≤ id < N). Each Proc belongs
// to one goroutine.
func (l *LeaderElection) Proc(id int) *Proc {
	if id < 0 || id >= l.opts.N {
		panic(fmt.Sprintf("randtas: process id %d out of range [0,%d)", id, l.opts.N))
	}
	return &Proc{h: newHandle(id, l.opts), le: l.le}
}

// Proc is one process's access point to a LeaderElection.
type Proc struct {
	h    *concurrent.Handle
	le   tas.LeaderElector
	used bool
}

// Elect runs the election; it returns true for exactly one process.
// Elect may be called once; further calls panic.
func (p *Proc) Elect() bool {
	p.markUsed("Elect")
	return p.le.Elect(p.h)
}

// Steps reports the shared-memory steps this process has taken.
func (p *Proc) Steps() int { return p.h.Steps() }

func (p *Proc) markUsed(op string) {
	if p.used {
		panic("randtas: " + op + " called twice on one Proc (objects are one-shot)")
	}
	p.used = true
}

// TASObject is a one-shot test-and-set object for N processes on real
// atomic registers.
type TASObject struct {
	opts  Options
	space *concurrent.Space
	obj   *tas.TAS
	// won is set by the winner's TAS before it returns: a lone winner
	// writes no register, so Read needs it to report the win.
	won atomic.Bool
}

// NewTAS builds a test-and-set object.
func NewTAS(opts Options) (*TASObject, error) {
	opts = opts.resolve()
	space := concurrent.NewSpace()
	le, err := buildElector(space, opts)
	if err != nil {
		return nil, err
	}
	obj := tas.New(space, le)
	space.Seal() // footprint fixed before any goroutine steps
	return &TASObject{opts: opts, space: space, obj: obj}, nil
}

// Registers returns the object's register footprint.
func (t *TASObject) Registers() int { return t.space.Registers() }

// Proc returns the context for process id (0 ≤ id < N).
func (t *TASObject) Proc(id int) *TASProc {
	if id < 0 || id >= t.opts.N {
		panic(fmt.Sprintf("randtas: process id %d out of range [0,%d)", id, t.opts.N))
	}
	return &TASProc{h: newHandle(id, t.opts), t: t}
}

// TASProc is one process's access point to a TASObject.
type TASProc struct {
	h    *concurrent.Handle
	t    *TASObject
	used bool
}

// TAS sets the bit and returns its previous value: 0 for the unique
// winner, 1 otherwise. TAS may be called once per TASProc; further calls
// panic.
func (p *TASProc) TAS() int {
	if p.used {
		panic("randtas: TAS called twice on one TASProc (objects are one-shot)")
	}
	p.used = true
	v := p.t.obj.TAS(p.h)
	if v == 0 {
		p.t.won.Store(true)
	}
	return v
}

// Read returns the current bit without setting it, in one shared-memory
// step. It may be called any number of times and is linearizable
// alongside TAS: it returns 1 once any TAS call, the winner's included,
// has returned.
func (p *TASProc) Read() int {
	if p.t.obj.Read(p.h) == 1 || p.t.won.Load() {
		return 1
	}
	return 0
}

// Steps reports the shared-memory steps this process has taken.
func (p *TASProc) Steps() int { return p.h.Steps() }

// ArenaOptions configures an Arena (and a Mutex built on one).
type ArenaOptions struct {
	// Options selects N, the algorithm, and the seed, exactly as for
	// one-shot objects. Every slot in the arena is an N-process TAS of
	// the chosen algorithm.
	Options
	// Shards is the number of independent free lists (default
	// arena.DefaultShards). More shards means less contention recycling
	// slots under heavy traffic.
	Shards int
	// Prealloc is the number of slots built up front per shard (default
	// arena.DefaultPrealloc). A Mutex recycles steadily with as few as
	// two live slots.
	Prealloc int
}

// ArenaShardStats re-exports the arena's per-shard counters.
type ArenaShardStats = arena.ShardStats

// MutexStats re-exports the mutex counters.
type MutexStats = arena.MutexStats

// Arena is a sharded pool of recyclable test-and-set instances: acquiring
// a pristine one-shot TAS is an O(1) lock-free free-list pop, and
// recycling resets the instance's registers instead of re-allocating its
// O(n) footprint. It is the building block for long-lived objects such as
// Mutex.
type Arena struct {
	opts ArenaOptions
	a    *arena.Arena
}

// NewArena builds an arena of opts.Algorithm TAS slots.
func NewArena(opts ArenaOptions) (*Arena, error) {
	// Validate up front — without constructing a throwaway elector,
	// whose registers can be expensive (RatRaceOriginal is Θ(n³)) — so
	// the slot factory below is infallible.
	if opts.N < 1 {
		return nil, fmt.Errorf("randtas: Options.N must be ≥ 1, got %d", opts.N)
	}
	if opts.Algorithm < Combined || opts.Algorithm > AGTV {
		return nil, fmt.Errorf("randtas: unknown algorithm %v", opts.Algorithm)
	}
	opts.Options = opts.Options.resolve()
	a, err := arena.New(arena.Config{
		N:        opts.N,
		Shards:   opts.Shards,
		Prealloc: opts.Prealloc,
		Factory: func(s *concurrent.Space, n int) tas.LeaderElector {
			le, ferr := buildElector(s, opts.Options)
			if ferr != nil {
				// Unreachable: options were validated above and
				// buildElector is deterministic in them.
				panic(ferr)
			}
			return le
		},
	})
	if err != nil {
		return nil, err
	}
	return &Arena{opts: opts, a: a}, nil
}

// NewMutex builds a reusable mutex on this arena. Any number of mutexes
// may share one arena.
func (a *Arena) NewMutex() *Mutex {
	return &Mutex{opts: a.opts, m: arena.NewMutex(a.a)}
}

// ShardStats snapshots the per-shard pool counters (hits, steals,
// construction misses, recycles, slot and register footprint).
func (a *Arena) ShardStats() []ArenaShardStats { return a.a.Stats() }

// Stats sums ShardStats across all shards.
func (a *Arena) Stats() ArenaShardStats { return a.a.TotalStats() }

// RegistryOptions configures a named-object registry (NewRegistry).
type RegistryOptions struct {
	// ArenaOptions sizes the backing arena shared by every named object.
	ArenaOptions
	// RegistryShards is the number of shards in the name directory
	// (default arena.DefaultRegistryShards). It bounds lookup
	// contention, not capacity — each shard holds any number of names.
	RegistryShards int
	// MaxIdle, when positive, lets Registry.Evict retire named mutexes
	// whose counters have been quiet for at least this long, returning
	// their final rounds' slots to the arena. Zero disables eviction.
	MaxIdle time.Duration
	// Clock times eviction and paces the mutexes' blocked waits (nil
	// means the wall clock). Injected by deterministic-simulation
	// harnesses; normal callers leave it nil.
	Clock dst.Clock
}

// NamedMutexStats re-exports the per-name mutex counters.
type NamedMutexStats = arena.NamedStats

// NamedElectionStats re-exports the per-name election standing.
type NamedElectionStats = arena.ElectionInfo

// Registry is a directory of named synchronization objects — fenced
// long-lived mutexes and re-electable epoch'd Elections — lazily
// created on first lookup and all drawing their register space from one
// shared Arena. It is the in-process face of the tasd lock service:
// cmd/tasd serves exactly this surface over TCP. All methods are safe
// for concurrent use.
type Registry struct {
	opts ArenaOptions
	r    *arena.Registry
}

// NewRegistry builds a registry on a private arena.
func NewRegistry(opts RegistryOptions) (*Registry, error) {
	a, err := NewArena(opts.ArenaOptions)
	if err != nil {
		return nil, err
	}
	return &Registry{opts: a.opts, r: arena.NewRegistry(a.a, arena.RegistryConfig{
		Shards:  opts.RegistryShards,
		MaxIdle: opts.MaxIdle,
		Clock:   opts.Clock,
	})}, nil
}

// NewRegistry builds a registry over this arena. Any number of
// registries and standalone mutexes may share one arena. maxIdle zero
// disables eviction.
func (a *Arena) NewRegistry(shards int, maxIdle time.Duration) *Registry {
	return &Registry{opts: a.opts, r: arena.NewRegistry(a.a, arena.RegistryConfig{Shards: shards, MaxIdle: maxIdle})}
}

// Mutex returns the named lock, creating it on first use (and afresh
// after an eviction). The returned wrapper is cheap and may be
// discarded; lookups of one name always resolve to the same underlying
// lock until it is evicted.
func (r *Registry) Mutex(name string) *Mutex {
	return &Mutex{opts: r.opts, m: r.r.Mutex(name)}
}

// Election returns the named re-electable election, creating it on
// first use. Its current epoch's slot stays checked out of the arena
// until the epoch is reset or the registry closes, so a decided epoch
// remains readable indefinitely.
func (r *Registry) Election(name string) *Election {
	return &Election{opts: r.opts.Options, e: r.r.Election(name)}
}

// Len reports the number of named mutexes and elections currently
// registered.
func (r *Registry) Len() (mutexes, elections int) { return r.r.Len() }

// Stats snapshots every named mutex's counters, sorted by name.
func (r *Registry) Stats() []NamedMutexStats { return r.r.Stats() }

// ElectionStats snapshots every named election's standing, sorted by
// name.
func (r *Registry) ElectionStats() []NamedElectionStats { return r.r.ElectionStats() }

// ArenaStats sums the backing arena's pool counters across shards.
func (r *Registry) ArenaStats() ArenaShardStats { return r.r.Arena().TotalStats() }

// Evict retires named mutexes idle for at least RegistryOptions.MaxIdle
// and returns how many it retired; see RegistryOptions.MaxIdle. Late
// users of an evicted lock observe ErrRetired and re-look the name up.
func (r *Registry) Evict() int { return r.r.Evict() }

// Evictions reports the total number of named mutexes ever evicted.
func (r *Registry) Evictions() uint64 { return r.r.Evictions() }

// Close recycles the named elections' current-epoch slots back into the
// arena and empties the registry. The caller must guarantee no
// goroutine is still using any named object.
func (r *Registry) Close() { r.r.Close() }

// Election is a registry-held, re-electable leader election. Within an
// epoch it behaves exactly like a one-shot LeaderElection — at most one
// participation per Proc, exactly one leader ever — and Reset bumps the
// epoch: the old slot returns to the arena, a pristine one is
// installed, and every proc may participate again. The (epoch, leader)
// pair is the fencing value for leadership: a deposed leader's epoch is
// forever below the current one.
type Election struct {
	opts Options
	e    *arena.Election
}

// Epoch returns the current epoch number (counted from 1).
func (e *Election) Epoch() uint64 { return e.e.Epoch() }

// Resets returns the number of completed epoch bumps.
func (e *Election) Resets() uint64 { return e.e.Resets() }

// Reset retires the given epoch — recycling its slot once any stragglers
// drain — and installs the next, returning the now-current epoch. If
// epoch is stale (someone already reset past it) the error is
// ErrStaleEpoch and the returned epoch is the one that superseded it.
func (e *Election) Reset(epoch uint64) (uint64, error) { return e.e.Reset(epoch) }

// Registers returns one epoch's register footprint.
func (e *Election) Registers() int { return e.e.Registers() }

// Proc returns the access point for process id (0 ≤ id < N). Each
// ElectionProc belongs to one goroutine; unlike one-shot Procs it is
// reusable — it may Elect once per epoch, forever.
func (e *Election) Proc(id int) *ElectionProc {
	if id < 0 || id >= e.opts.N {
		panic(fmt.Sprintf("randtas: process id %d out of range [0,%d)", id, e.opts.N))
	}
	return &ElectionProc{h: newHandle(id, e.opts), e: e.e, id: id}
}

// ElectionProc is one goroutine's handle on an Election.
type ElectionProc struct {
	h  *concurrent.Handle
	e  *arena.Election
	id int

	cachedEpoch  uint64
	cachedLeader bool
}

// Elect participates in the current epoch (at most one real TAS per
// epoch per proc — the wait-free election itself needs no context) and
// reports whether this proc leads it, plus the epoch number. Repeated
// calls within one epoch return the first answer; after a Reset the
// proc participates afresh in the new epoch.
func (p *ElectionProc) Elect() (leader bool, epoch uint64) {
	if p.cachedEpoch != 0 && p.cachedEpoch == p.e.Epoch() {
		return p.cachedLeader, p.cachedEpoch
	}
	leader, epoch = p.e.Participate(p.h, p.id)
	p.cachedLeader, p.cachedEpoch = leader, epoch
	return leader, epoch
}

// Participate is Elect without the per-proc answer cache: the
// participation bitmap alone decides, so a proc (or slot) that already
// ran in this epoch is a loser — even if its earlier run won. This is
// the building block for services that hand one proc id to a
// succession of owners (tasd recycles connection slots): the new owner
// must not inherit its dead predecessor's leadership, and any
// repeat-query stability is the service's own cache to provide.
// Participate leaves Elect's cache untouched, so mixing the two on one
// proc keeps Elect's repeat-stability; a demoted Participate answer
// never rewrites an earlier Elect win.
func (p *ElectionProc) Participate() (leader bool, epoch uint64) {
	return p.e.Participate(p.h, p.id)
}

// Steps reports the shared-memory steps this proc has taken across all
// epochs.
func (p *ElectionProc) Steps() int { return p.h.Steps() }

// Mutex is a long-lived fenced lock for up to N processes built by
// chaining one-shot TAS rounds from an Arena: an acquisition wins the
// current round's election and returns the round's sequence number as a
// fencing Token; Unlock verifies the token, installs a fresh round for
// the waiters and recycles the old one. It uses only atomic registers
// (plus one atomic pointer to publish rounds and one gate word to
// arbitrate release against revocation) — no compare-and-swap in the
// election itself.
type Mutex struct {
	opts ArenaOptions
	m    *arena.Mutex
}

// NewMutex is the convenience constructor: a mutex on a private arena.
func NewMutex(opts ArenaOptions) (*Mutex, error) {
	a, err := NewArena(opts)
	if err != nil {
		return nil, err
	}
	return a.NewMutex(), nil
}

// Proc returns the access point for process id (0 ≤ id < N). Each
// MutexProc belongs to one goroutine; concurrent users must hold
// distinct ids. Unlike one-shot Procs, a MutexProc is reusable: it may
// Lock and Unlock any number of times.
func (m *Mutex) Proc(id int) *MutexProc {
	if id < 0 || id >= m.opts.N {
		panic(fmt.Sprintf("randtas: process id %d out of range [0,%d)", id, m.opts.N))
	}
	return &MutexProc{p: m.m.Proc(id, newHandle(id, m.opts.Options))}
}

// Stats snapshots the mutex's round, contention and expiry counters.
func (m *Mutex) Stats() MutexStats { return m.m.Stats() }

// Holder returns the fencing token of the current holder, or 0 when the
// lock is free. Tokens are strictly monotone over the lock's history, so
// a downstream resource that only admits the largest token it has seen
// rejects every fenced (revoked) writer.
func (m *Mutex) Holder() Token { return m.m.Holder() }

// Revoke forcibly releases the holder of token tok — the
// lease-enforcement hook. Waiters proceed on a force-installed
// successor round (with strictly larger tokens), and the zombie
// holder's own Unlock(tok) reports ErrFenced. It returns false when tok
// no longer owns the lock.
func (m *Mutex) Revoke(tok Token) bool { return m.m.Revoke(tok) }

// Retired reports whether this mutex was evicted from its registry.
func (m *Mutex) Retired() bool { return m.m.Retired() }

// MutexProc is one goroutine's handle on a Mutex.
type MutexProc struct {
	p *arena.MutexProc
}

// Lock acquires the mutex, blocking until this proc wins a TAS round or
// ctx is done, and returns the round's fencing Token. Cancellation is
// abortive: ctx cancelation aborts the proc mid-election (not merely
// between rounds) and leaves no residue — a win that races the cancel
// is released before returning. A nil ctx blocks until acquisition,
// eviction (ErrRetired) or an external Abort (ErrAborted); with a
// cancellable ctx the error is ctx.Err() or ErrRetired.
func (p *MutexProc) Lock(ctx context.Context) (Token, error) { return p.p.Lock(ctx) }

// Abort asks this proc's in-flight acquisition to give up; it resolves
// as a loss at the proc's next election spin point or park, bounded by
// the abort protocol's cancellation latency. Unlike every other
// MutexProc method, Abort is safe to call from any goroutine — it is
// how an external canceller (a drain loop, a supervisor) reaches a
// waiter blocked inside LockWhile. One Abort cancels at most one
// acquisition; aborting a proc that holds the lock does not release it.
func (p *MutexProc) Abort() { p.p.Abort() }

// LockWhile acquires like Lock but keeps waiting only while stop
// reports false — the building block for wait conditions a context
// cannot express (tasd uses it to abort waiters whose client hung up).
// stop is polled only between rounds; the wait is paced by the
// registry's Clock (the wall clock outside a registry), not by stop.
func (p *MutexProc) LockWhile(stop func() bool) (Token, bool) { return p.p.LockWhile(stop) }

// TryLock makes a single attempt at the current round, returning the
// fencing token and whether the mutex was acquired. It never blocks.
func (p *MutexProc) TryLock() (Token, bool) { return p.p.TryLock() }

// Unlock releases the mutex if tok still owns it. ErrFenced means the
// token was superseded while held (lease expiry or eviction) — the
// proc's state is cleaned up and it may lock again, but the caller must
// treat its critical section as having lost the lock at some point.
// ErrNotHeld and ErrBadToken report misuse; the lock is not released.
func (p *MutexProc) Unlock(tok Token) error { return p.p.Unlock(tok) }

// Token returns the fencing token this proc currently holds, or 0.
func (p *MutexProc) Token() Token { return p.p.Token() }

// Steps reports the cumulative shared-memory steps this proc has taken
// across all rounds; it is monotone over the proc's lifetime.
func (p *MutexProc) Steps() int { return p.p.Steps() }

// newHandle derives the per-proc coin stream for an object whose seed
// was already resolved at construction: the object seed and proc id are
// pushed through a splitmix64 round, so nearby ids and nearby seeds
// yield statistically independent streams.
func newHandle(id int, opts Options) *concurrent.Handle {
	g := rng.New(uint64(opts.Seed) ^ (uint64(id+1) * 0xbf58476d1ce4e5b9))
	return concurrent.NewHandle(id, int64(g.Next()>>1)|1)
}
