// Package concurrent is the production backend of the shared-memory
// model and the home of its one handle type: registers are real
// sync/atomic words stepped on by actual goroutines. Every algorithm in
// this repository runs unchanged on it.
//
// Unlike the simulator there is no adversary: the Go runtime schedules
// goroutines. The paper's expected step bounds still apply in the sense
// that the runtime is (at worst) an adaptive adversary — this is exactly
// the Section 4 motivation for combining algorithms so that the adaptive
// bound always holds.
//
// # One handle
//
// Handle is the only execution context in the repository. A production
// handle (NewHandle) steps straight on the atomic registers. A
// scheduled handle (Bind) hands every Read and Write to its Scheduler
// instead: each simulated process (internal/sim) and each combiner
// fiber (internal/combiner) is one, with the process or the fiber as its
// scheduler. Either kind draws its coins from its own splitmix64 stream
// and polls the same abort flag, so every elector, the abortable
// doorway included, is written once against *Handle and its steps are
// static calls on every backend. The scheduler is nil in production,
// where it costs one never-taken branch per step; a scheduled step pays
// one interface call, to its scheduler.
//
// This package is the leaf of the shared-memory layer. It defines
// Value, the AnyRegister and AnySpace interfaces that every backend's
// registers and spaces satisfy, and Scheduler; internal/shm re-exports
// them under the names the algorithms and the benchmark module use.
// ReadReg and WriteReg step on a concrete *Register with no type
// assertion; Read and Write route through them. This package defines
// registers and handles, not election protocols.
//
// Registers are carved out of contiguous cache-line-padded banks owned
// by their Space: one allocation per bank instead of one per register,
// no false sharing between neighbouring registers, and Reset becomes a
// sequential sweep over the banks that skips everything the last round
// never wrote (the dirty window).
//
// # RMR accounting
//
// Steps are one of the paper's two cost currencies; the other is remote
// memory references. A Space built with Config.CountRMRs charges every
// handle's RMR counters in both standard machine models, exploiting the
// fact that each padded register IS its own cache line:
//
//   - CC (cache-coherent): a read is remote iff the line's last writer
//     is another handle and this handle has not read the line since
//     that write — re-reads of an unchanged line hit the local cache,
//     so spinning is free until an invalidation lands. A write is
//     remote unless the writer already owns the line exclusively (it
//     was the last writer and nobody read the line since). Lines never
//     written are free to read: only coherence traffic counts.
//   - DSM (distributed shared memory): the first handle to access a
//     line claims it into its local memory segment; every access by
//     any other handle is remote, including re-reads — DSM has no
//     caches, which is why spin loops that are free under CC cost one
//     RMR per iteration here.
//
// Accounting state lives in the otherwise-padding bytes of each
// register's cache line and is consulted only behind a per-register
// flag fixed at allocation, so spaces without Config.CountRMRs pay one
// never-taken branch per step on data already in the line being
// accessed — the step loops are otherwise unchanged (BenchmarkMutex /
// BenchmarkSpaceReset guard this). With accounting on, counts are exact
// for sequentially executed handles (the property-test and sweep
// configuration); truly concurrent handles update the bookkeeping with
// atomics but the read-decide-charge sequence is not one transaction,
// so concurrent counts are approximate. The per-handle CC cache is
// keyed by register id, so exact CC accounting also assumes a handle
// measures registers of one accounting Space at a time.
package concurrent

import (
	"math/bits"
	"sync/atomic"
	"unsafe"

	"repro/internal/rng"
)

// Value is the contents of a register. The paper's algorithms need only
// small integers; a 64-bit word mirrors real hardware registers.
type Value = int64

// AnyRegister is an opaque reference to one atomic register of any
// backend: a *Register here, the simulator's own register type there. A
// register may only be used with handles of its own backend: a
// production handle panics on a simulated register, and a simulated
// process on a register of another System.
type AnyRegister interface {
	// RegisterID returns a backend-unique identifier, used by the
	// simulator for space accounting and adversary views.
	RegisterID() int
}

// AnySpace allocates registers on any backend. Algorithm constructors
// take one, so that a single implementation runs on both *Space and the
// simulator's System. Registers are allocated during object
// construction only: register footprints are fixed up front, matching
// the paper's space-complexity accounting.
type AnySpace interface {
	// NewRegister allocates a fresh register holding init.
	NewRegister(init Value) AnyRegister
}

// cacheLine is the coherence granularity the register padding targets.
const cacheLine = 64

// bankSize is the number of registers per bank. 64 registers × 64 bytes
// is one 4 KiB block, which the Go allocator serves from a page-aligned
// size class, keeping every register on its own cache line — and 64 is
// exactly one bit per register in the bank's uint64 dirty map.
const bankSize = 64

// noOwner is the "no handle" sentinel of the RMR-accounting ownership
// words (last CC writer, DSM home).
const noOwner int32 = -1

// Register is one atomic 64-bit shared register, padded to a full cache
// line so that processes contending on neighbouring registers of the
// same object never false-share. Registers live inside the banks of the
// Space that allocated them; their addresses are stable for the life of
// the Space.
//
// The four accounting words (ver, lastW, home, shared) occupy bytes
// that were previously padding, so the register still fills exactly one
// line; they are only ever touched when acct is set (Config.CountRMRs),
// keeping the default hot path's coherence behaviour unchanged.
//
//taslint:cacheline
type Register struct {
	v       atomic.Int64
	init    Value
	bankMap *atomic.Uint64 // the owning bank's dirty bitmap; nil = untracked
	id      int32
	dirty   atomic.Int32 // set on first Write since the last Reset

	// RMR-accounting state (see the package comment), live iff acct:
	ver    atomic.Uint32 // write version; bumped per Write and per Reset
	lastW  atomic.Int32  // CC: last writer's handle id, or noOwner
	home   atomic.Int32  // DSM: first accessor's handle id, or noOwner
	shared atomic.Uint32 // CC: nonzero once a non-writer read the line
	acct   bool

	_ [cacheLine - 49]byte
}

// Compile-time proof that a Register occupies exactly one cache line.
var _ [cacheLine]byte = [unsafe.Sizeof(Register{})]byte{}

// RegisterID implements AnyRegister.
func (r *Register) RegisterID() int { return int(r.id) }

// bank is one contiguous cache-line-padded block of registers plus the
// block's dirty window: a 64-bit map with one bit per register, set on
// the register's first Write since the last Reset. One load tells Reset
// exactly which registers to restore — no per-register scan. The map
// sits on its own line ahead of the registers so that marking it never
// contends with the register payloads.
type bank struct {
	dirtyMap atomic.Uint64
	_        [cacheLine - 8]byte
	used     int // registers allocated in this bank
	_        [cacheLine - 8]byte
	regs     [bankSize]Register
}

// Space allocates atomic registers out of contiguous padded banks.
// Allocation must happen during object construction, before goroutines
// start; it is not goroutine-safe. Call Seal once construction is done —
// afterwards NewRegister panics, turning the late-allocation bug (which
// the bank layout makes invalid, not merely slow) into an immediate
// failure. The arena seals every slot space automatically.
//
// A Space remembers every register it allocated together with its
// initial value, so the whole footprint can be restored with Reset. This
// is the reuse hook the arena subsystem builds on: one-shot objects
// become recyclable by resetting their register space between rounds
// instead of re-allocating it.
type Space struct {
	cfg    Config
	banks  []*bank
	n      int
	sealed bool
	small  bool // set at Seal: footprint below smallSpaceThreshold
}

// Config parameterizes a Space beyond its register contents.
type Config struct {
	// CountRMRs arms remote-memory-reference accounting on every
	// register allocated from this space: each ReadReg/WriteReg (and a
	// production handle's Read/Write, which route through them)
	// charges the acting Handle's CC- and DSM-model RMR counters per
	// the charging rules in the package comment, readable via
	// Handle.CCRMRs and Handle.DSMRMRs. Off (the zero value), the
	// accounting state is never consulted and the step loops keep
	// their production cost.
	CountRMRs bool
}

// smallSpaceThreshold is the footprint below which dirty-window tracking
// is a net loss: the window costs up to three extra atomic ops per first
// write of a register per round, which only pays off when Reset gets to
// skip many untouched registers. Sealing a space at or below the
// threshold disables tracking; its Reset just sweeps the whole (tiny)
// footprint.
const smallSpaceThreshold = 16

var _ AnySpace = (*Space)(nil)

// NewSpace returns an empty register space with the default (zero)
// Config: no RMR accounting.
func NewSpace() *Space { return &Space{} }

// NewSpaceConfig returns an empty register space with the given Config.
func NewSpaceConfig(cfg Config) *Space { return &Space{cfg: cfg} }

// CountsRMRs reports whether the space's registers charge RMR counters
// (Config.CountRMRs).
func (s *Space) CountsRMRs() bool { return s.cfg.CountRMRs }

// NewRegister implements AnySpace. It panics if the space has been
// sealed: register footprints are fixed up front (the paper's space
// accounting), and with the bank layout a late allocation would race
// with Reset's bank sweep.
func (s *Space) NewRegister(init Value) AnyRegister {
	return s.alloc(init)
}

func (s *Space) alloc(init Value) *Register {
	if s.sealed {
		panic("concurrent: NewRegister on a sealed Space — register footprints are fixed before goroutines start")
	}
	off := s.n % bankSize
	if off == 0 {
		s.banks = append(s.banks, new(bank))
	}
	b := s.banks[len(s.banks)-1]
	r := &b.regs[off]
	r.id = int32(s.n)
	r.init = init
	r.bankMap = &b.dirtyMap
	r.v.Store(init)
	if s.cfg.CountRMRs {
		r.acct = true
		r.lastW.Store(noOwner)
		r.home.Store(noOwner)
	}
	b.used = off + 1
	s.n++
	return r
}

// Seal marks construction complete: any further NewRegister call is a
// programming error and panics. Sealing is idempotent. Sealing also
// fixes the reset strategy: small footprints opt out of dirty-window
// tracking (see smallSpaceThreshold).
func (s *Space) Seal() {
	if !s.sealed && s.n <= smallSpaceThreshold {
		s.small = true
		for _, b := range s.banks {
			for i := 0; i < b.used; i++ {
				b.regs[i].bankMap = nil // writes skip window maintenance
			}
		}
	}
	s.sealed = true
}

// Sealed reports whether the space has been sealed.
func (s *Space) Sealed() bool { return s.sealed }

// Registers returns the number of registers allocated so far (the space
// complexity of the constructed objects).
func (s *Space) Registers() int { return s.n }

// Banks returns the number of contiguous register banks backing the
// space — the allocation count of the whole register footprint.
func (s *Space) Banks() int { return len(s.banks) }

// Reset restores every register written since the previous Reset to its
// initial value, returning all objects built on this space to their
// pristine one-shot state. Only the dirty window is rewritten: banks
// whose summary flag is clear are skipped outright, and clean registers
// inside dirty banks are skipped per-register, so recycling a slot costs
// O(registers actually touched), not O(footprint). The caller must
// guarantee quiescence: no Handle may be executing Read or Write on the
// space's registers concurrently with Reset. (The arena's round
// refcounting provides exactly that guarantee.) The stores are atomic,
// so a Reset followed by publication through an atomic pointer is
// race-detector clean.
func (s *Space) Reset() {
	if s.cfg.CountRMRs {
		s.resetAccounting()
	}
	if s.small {
		// Untracked small footprint: a bare value sweep, no dirty flags
		// to consult or clear.
		for _, b := range s.banks {
			for i := 0; i < b.used; i++ {
				r := &b.regs[i]
				r.v.Store(r.init)
			}
		}
		return
	}
	for _, b := range s.banks {
		m := b.dirtyMap.Load()
		if m == 0 {
			continue
		}
		b.dirtyMap.Store(0)
		for m != 0 {
			i := bits.TrailingZeros64(m)
			m &^= 1 << uint(i)
			r := &b.regs[i]
			r.v.Store(r.init)
			r.dirty.Store(0)
		}
	}
}

// resetAccounting returns every register's RMR-accounting state to
// pristine — no CC writer, no DSM home, unshared — and bumps the write
// version so that handle-side CC cache entries recorded before the
// Reset can never be mistaken for the recycled line being still valid
// (versions are monotone; an entry matches only the exact write it
// observed). Accounting resets sweep the full footprint regardless of
// the dirty window: reads leave accounting traces (home claims, shared
// marks, cache entries) without dirtying a register, and accounting
// spaces are measurement instruments, not hot paths.
func (s *Space) resetAccounting() {
	for _, b := range s.banks {
		for i := 0; i < b.used; i++ {
			r := &b.regs[i]
			r.lastW.Store(noOwner)
			r.home.Store(noOwner)
			r.shared.Store(0)
			r.ver.Add(1)
		}
	}
}

// Handle is the execution context of one process: the only handle type
// in the repository (see the package comment). A Handle is confined to
// one process (one goroutine, one simulated process or one combiner
// fiber); it is not safe for concurrent use, except for Abort. The coin
// stream is an embedded splitmix64 generator: no allocation at handle
// creation and no dispatch per flip.
type Handle struct {
	id    int
	steps int
	sched Scheduler // nil in production: steps go to the atomic registers
	rng   rng.SplitMix64
	coins int
	tape  *CoinTape // nil unless coin outcomes are overridden

	// RMR accounting (live only against Config.CountRMRs spaces): the
	// two model counters plus the CC cache — the write version of each
	// register id this handle last pulled into its simulated cache.
	ccRMRs  int
	dsmRMRs int
	cache   []uint32

	// aborted is the cancellation flag consulted by abortable step
	// loops. Unlike every other Handle field it may be written from
	// any goroutine: Abort is the one crossing point through which an
	// external canceller (a context callback, a server drain sweep, a
	// simulator's step hook) reaches a proc spinning inside an election.
	aborted atomic.Bool
}

// Scheduler takes the shared-memory steps of a scheduled handle (see
// Bind). The simulator parks the process until its adversary grants the
// step; a combiner fiber relays the step to its process's handle.
type Scheduler interface {
	// Step performs one step: a write of v to r if write is set,
	// otherwise a read of r, whose value it returns.
	Step(r AnyRegister, write bool, v Value) Value
}

// CoinTape overrides a handle's local coin flips; a nil function keeps
// the handle's own stream. Exhaustive checkers enumerate coin outcomes
// through it (sim.Config.CoinFunc and IntnFunc).
type CoinTape struct {
	Coin func(pid int, p float64) bool
	Intn func(pid, n int) int
}

// NewHandle creates the context for process id with a deterministic coin
// stream derived from seed. Distinct processes must use distinct ids;
// mixing the id into the seed decorrelates streams even when callers
// reuse one seed across processes.
func NewHandle(id int, seed int64) *Handle {
	return &Handle{id: id, rng: rng.New(uint64(seed) ^ uint64(id)*0x632be59bd9b4e019)}
}

// Bind makes h, in place, the scheduled handle of process id: every
// Read and Write goes to s, coins come from the splitmix64 stream rooted
// at stream unless tape overrides them, and the counters and the abort
// flag start from zero. Rebinding rewinds the handle for another
// execution. Steps are counted by the scheduler, not by h.
func (h *Handle) Bind(id int, s Scheduler, stream uint64, tape *CoinTape) {
	h.id, h.steps, h.sched, h.rng, h.coins, h.tape = id, 0, s, rng.New(stream), 0, tape
	h.ccRMRs, h.dsmRMRs = 0, 0
	h.aborted.Store(false)
}

// ID returns the process identifier.
func (h *Handle) ID() int { return h.id }

// ReadReg is the devirtualized Read: one atomic load on a concrete
// register, no interface dispatch, no type assertion. One step. On an
// accounting space the read is first charged per the CC/DSM rules; the
// guard is one branch on a flag in the line the load is about to pull
// anyway, so non-accounting spaces pay nothing.
func (h *Handle) ReadReg(r *Register) Value {
	h.steps++
	if r.acct {
		h.chargeRead(r)
	}
	return r.v.Load()
}

// chargeRead applies the RMR charging rules to a read of r (see the
// package comment). Deliberately not inlined into ReadReg's hot path.
func (h *Handle) chargeRead(r *Register) {
	me := int32(h.id)
	// DSM: the first accessor claims the line into its memory segment;
	// everyone else's accesses are remote, re-reads included.
	if home := r.home.Load(); home != me && (home != noOwner || !r.home.CompareAndSwap(noOwner, me)) {
		h.dsmRMRs++
	}
	// CC: remote iff another handle wrote the line since this handle
	// last cached it. Re-reads of an unchanged line are local (the spin
	// case); lines never written carry no coherence traffic at all.
	if lw := r.lastW.Load(); lw != noOwner && lw != me {
		if ver := r.ver.Load(); h.cached(r.id) != ver {
			h.ccRMRs++
			h.setCached(r.id, ver)
		}
		r.shared.Store(1)
	}
}

// WriteReg is the devirtualized Write: one atomic store plus dirty-window
// maintenance. The register's dirty flag lives on the register's own
// cache line — which the store just claimed exclusively — and the shared
// bank map is touched at most once per register per round (and never for
// untracked small spaces), so the tracking adds no coherence traffic on
// the hot path. One step.
func (h *Handle) WriteReg(r *Register, v Value) {
	h.steps++
	if r.acct {
		h.chargeWrite(r)
	}
	r.v.Store(v)
	if r.bankMap != nil && r.dirty.Load() == 0 {
		r.dirty.Store(1)
		// Explicit CAS, not bankMap.Or: the go1.24.0 Or intrinsic
		// miscompiles (receiver clobbered by its internal CAS loop) —
		// the PR 4 workaround, enforced repo-wide by taslint's atomicor.
		bit := uint64(1) << (uint(r.id) % bankSize)
		for {
			old := r.bankMap.Load()
			if old&bit != 0 || r.bankMap.CompareAndSwap(old, old|bit) {
				break
			}
		}
	}
}

// chargeWrite applies the RMR charging rules to a write of r (see the
// package comment). Deliberately not inlined into WriteReg's hot path.
func (h *Handle) chargeWrite(r *Register) {
	me := int32(h.id)
	if home := r.home.Load(); home != me && (home != noOwner || !r.home.CompareAndSwap(noOwner, me)) {
		h.dsmRMRs++
	}
	// CC: remote unless the line is already exclusively owned — this
	// handle wrote it last and nobody read it in between (a sharer's
	// cached copy would have to be invalidated).
	if r.lastW.Load() != me || r.shared.Load() != 0 {
		h.ccRMRs++
	}
	ver := r.ver.Add(1)
	r.shared.Store(0)
	r.lastW.Store(me)
	h.setCached(r.id, ver)
}

// cached returns the write version of register id last pulled into this
// handle's simulated CC cache, or 0 for "never cached" (write versions
// of written registers are always ≥ 1).
func (h *Handle) cached(id int32) uint32 {
	if int(id) >= len(h.cache) {
		return 0
	}
	return h.cache[id]
}

func (h *Handle) setCached(id int32, ver uint32) {
	if int(id) >= len(h.cache) {
		grown := make([]uint32, int(id)+1, max(int(id)+1, 2*len(h.cache)))
		copy(grown, h.cache)
		h.cache = grown
	}
	h.cache[id] = ver
}

// Read atomically reads r: one shared-memory step, taken by the
// scheduler of a scheduled handle.
func (h *Handle) Read(r AnyRegister) Value {
	if h.sched != nil {
		return h.sched.Step(r, false, 0)
	}
	return h.ReadReg(mustRegister(r))
}

// Write atomically writes v to r: one shared-memory step, taken by the
// scheduler of a scheduled handle.
func (h *Handle) Write(r AnyRegister, v Value) {
	if h.sched != nil {
		h.sched.Step(r, true, v)
		return
	}
	h.WriteReg(mustRegister(r), v)
}

// Intn returns a uniform integer in [0, n): a local coin flip, not a
// shared-memory step. n must be positive.
func (h *Handle) Intn(n int) int {
	h.coins++
	if h.tape != nil && h.tape.Intn != nil {
		return h.tape.Intn(h.id, n)
	}
	return h.rng.Intn(n)
}

// Coin returns true with probability p (clamped to [0, 1]) by a single
// integer threshold comparison: a local coin flip, not a shared-memory
// step.
func (h *Handle) Coin(p float64) bool {
	h.coins++
	if h.tape != nil && h.tape.Coin != nil {
		return h.tape.Coin(h.id, p)
	}
	return h.rng.Coin(p)
}

// Coins returns the number of local coin flips (Intn and Coin calls)
// this handle has made.
func (h *Handle) Coins() int { return h.coins }

// Steps returns the number of shared-memory operations this production
// handle has performed — the same step measure the simulator counts. A
// scheduled handle's steps are counted by its scheduler.
func (h *Handle) Steps() int { return h.steps }

// CCRMRs returns the remote memory references this handle has been
// charged under the cache-coherent model. Always zero unless the handle
// stepped on registers of a Config.CountRMRs space.
func (h *Handle) CCRMRs() int { return h.ccRMRs }

// DSMRMRs returns the remote memory references this handle has been
// charged under the distributed-shared-memory model. Always zero unless
// the handle stepped on registers of a Config.CountRMRs space.
func (h *Handle) DSMRMRs() int { return h.dsmRMRs }

// Abort requests that the handle's current (or next) abortable election
// resolve to a loss at its next spin or park point. Safe to call from
// any goroutine, any number of times; it stays set until ClearAbort.
func (h *Handle) Abort() { h.aborted.Store(true) }

// Aborting reports whether an abort has been requested and not cleared.
// The abortable doorway polls it between shared-memory steps; the
// check is a local atomic load, so it adds no step in the paper's model
// and no coherence traffic unless an abort actually lands.
func (h *Handle) Aborting() bool { return h.aborted.Load() }

// ClearAbort rearms the handle for the next acquisition attempt. Only
// the goroutine that owns the handle may call it (a stale abort from a
// previous episode is indistinguishable from a fresh one, so owners
// clear before re-entering an abortable loop).
func (h *Handle) ClearAbort() { h.aborted.Store(false) }

func mustRegister(r AnyRegister) *Register {
	reg, ok := r.(*Register)
	if !ok {
		panic("concurrent: register belongs to a different backend")
	}
	return reg
}
