// Named-object registry: the arena's service-facing directory.
//
// A lock service (cmd/tasd) multiplexes many clients onto *named*
// synchronization objects — "lock/build-cache", "leader/shard-7" — while
// the arena itself only hands out anonymous recyclable slots. The
// Registry bridges the two: a sharded map from names to lazily created
// Mutexes (long-lived locks chained from arena slots, recycled through
// the existing free lists round by round) and to named Elections
// (re-electable leadership: one one-shot TAS slot per *epoch*, with
// Reset retiring the old epoch's slot to the arena and installing a
// fresh one under a bumped epoch counter).
//
// Lookups are the hot path — every ACQUIRE/RELEASE resolves a name — so
// the map is sharded by name hash (FNV-1a) and the common case is one
// RLock on one shard. Creation takes the shard's write lock and is
// per-name-once; the arena's own sharding keeps slot churn contention
// independent of the registry's.
//
// # Eviction
//
// Named mutexes would otherwise live forever; Config.MaxIdle plus
// Evict() bounds memory under high name cardinality. Evict scans every
// named mutex, stamps the ones whose counters moved since the last scan
// as active, and retires the ones that have been quiet for MaxIdle and
// are not held: Mutex.Retire closes the lock (late acquirers get
// ErrRetired and look the name up again, which recreates it fresh) and
// returns its final round's slot to the arena.
package arena

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/concurrent"
	"repro/internal/dst"
)

// DefaultRegistryShards sizes a Registry when RegistryConfig leaves
// Shards at zero.
const DefaultRegistryShards = 8

// ErrStaleEpoch reports an Election.Reset whose epoch argument is no
// longer current — some other party already reset past it.
var ErrStaleEpoch = errors.New("arena: election epoch is stale (already reset)")

// RegistryConfig sizes a Registry.
type RegistryConfig struct {
	// Shards is the number of map shards (non-positive means
	// DefaultRegistryShards). It bounds lookup contention, not capacity.
	Shards int
	// MaxIdle is the quiet time after which Evict retires a named mutex.
	// Zero disables eviction (Evict becomes a no-op).
	MaxIdle time.Duration
	// Clock times Evict's idleness and paces the mutexes' blocked waits
	// (nil means dst.Real). A simulated service injects its virtual
	// clock, so eviction is deterministic and no waiter parks on wall time.
	Clock dst.Clock
}

// Registry maps names to synchronization objects built on one shared
// Arena. All methods are safe for concurrent use.
type Registry struct {
	a       *Arena
	maxIdle time.Duration
	clock   dst.Clock
	shards  []registryShard
	evicted atomic.Uint64 // total mutexes retired by Evict
}

type registryShard struct {
	mu        sync.RWMutex
	mutexes   map[string]*Mutex
	elections map[string]*Election
	// idle is Evict's per-name activity bookkeeping; evictions remembers
	// how many times each name has been evicted, surviving re-creation
	// so NamedStats can report it.
	idle      map[string]idleRec
	evictions map[string]uint64
}

type idleRec struct {
	sig   uint64 // rounds+contended+probes at the last scan
	since time.Time
}

// NewRegistry builds a registry over a.
func NewRegistry(a *Arena, cfg RegistryConfig) *Registry {
	shards := cfg.Shards
	if shards <= 0 {
		shards = DefaultRegistryShards
	}
	clock := cfg.Clock
	if clock == nil {
		clock = dst.Real
	}
	r := &Registry{a: a, maxIdle: cfg.MaxIdle, clock: clock, shards: make([]registryShard, shards)}
	for i := range r.shards {
		r.shards[i].mutexes = make(map[string]*Mutex)
		r.shards[i].elections = make(map[string]*Election)
		r.shards[i].idle = make(map[string]idleRec)
		r.shards[i].evictions = make(map[string]uint64)
	}
	return r
}

// Arena returns the arena backing every named object.
func (r *Registry) Arena() *Arena { return r.a }

// fnv1a is the 64-bit FNV-1a hash of name — allocation-free, unlike
// hash/fnv's Writer interface.
func fnv1a(name string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime
	}
	return h
}

func (r *Registry) shard(name string) *registryShard {
	return &r.shards[fnv1a(name)%uint64(len(r.shards))]
}

// Mutex returns the named long-lived lock, creating it on first use —
// and recreating it fresh if a previous incarnation was evicted. Every
// mutex draws its rounds from the shared arena, so a thousand named
// locks recycle through the same slot free lists.
func (r *Registry) Mutex(name string) *Mutex {
	sh := r.shard(name)
	sh.mu.RLock()
	m := sh.mutexes[name]
	sh.mu.RUnlock()
	if m != nil {
		return m
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if m = sh.mutexes[name]; m == nil {
		m = NewMutex(r.a)
		m.clock = r.clock
		sh.mutexes[name] = m
	}
	return m
}

// Election returns the named re-electable election, creating it on
// first use. The current epoch's slot stays checked out of the arena
// until the epoch is reset (or the registry closes) — a decided epoch
// must remain readable.
func (r *Registry) Election(name string) *Election {
	sh := r.shard(name)
	sh.mu.RLock()
	e := sh.elections[name]
	sh.mu.RUnlock()
	if e != nil {
		return e
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e = sh.elections[name]; e == nil {
		e = newElection(r.a, int(fnv1a(name)))
		sh.elections[name] = e
	}
	return e
}

// Len reports the number of named mutexes and elections currently
// registered.
func (r *Registry) Len() (mutexes, elections int) {
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.RLock()
		mutexes += len(sh.mutexes)
		elections += len(sh.elections)
		sh.mu.RUnlock()
	}
	return
}

// Evictions reports the total number of named mutexes retired by Evict
// over the registry's lifetime.
func (r *Registry) Evictions() uint64 { return r.evicted.Load() }

// Evict retires named mutexes that have been idle — counters unchanged
// and lock unheld — for at least MaxIdle, returning their final rounds'
// slots to the arena, and returns how many it evicted. It is a no-op
// when MaxIdle is zero. Call it periodically (there is no background
// goroutine); a name evicted and looked up again simply starts fresh,
// and a proc still holding a stale *Mutex observes ErrRetired.
func (r *Registry) Evict() int {
	if r.maxIdle <= 0 {
		return 0
	}
	now := r.clock.Now()
	evicted := 0
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		for name, m := range sh.mutexes {
			st := m.Stats()
			sig := st.Rounds + st.Contended + st.ProbeLosses + st.Expirations
			rec, ok := sh.idle[name]
			if !ok || rec.sig != sig {
				sh.idle[name] = idleRec{sig: sig, since: now}
				continue
			}
			if now.Sub(rec.since) < r.maxIdle {
				continue
			}
			if !m.Retire() { // held (or racing) — active after all
				sh.idle[name] = idleRec{sig: sig, since: now}
				continue
			}
			delete(sh.mutexes, name)
			delete(sh.idle, name)
			sh.evictions[name]++
			evicted++
		}
		sh.mu.Unlock()
	}
	r.evicted.Add(uint64(evicted))
	return evicted
}

// NamedStats is one named mutex's counters.
type NamedStats struct {
	// Name is the registry key.
	Name string
	// MutexStats are the lock's round/contention/expiry counters.
	MutexStats
	// HolderToken is the current holder's fencing token (0 when free).
	HolderToken uint64
	// Evictions counts how many earlier incarnations of this name were
	// retired by Evict.
	Evictions uint64
}

// Stats snapshots every named mutex's counters, sorted by name so the
// output is stable for logs and tests.
func (r *Registry) Stats() []NamedStats {
	var out []NamedStats
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.RLock()
		for name, m := range sh.mutexes {
			out = append(out, NamedStats{
				Name:        name,
				MutexStats:  m.Stats(),
				HolderToken: m.Holder(),
				Evictions:   sh.evictions[name],
			})
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ElectionInfo is one named election's standing.
type ElectionInfo struct {
	// Name is the registry key.
	Name string
	// Epoch is the current epoch (counted from 1).
	Epoch uint64
	// Resets counts completed epoch bumps.
	Resets uint64
	// Decided reports whether the current epoch has a leader; Winner is
	// that leader's proc id (meaningful only when Decided).
	Decided bool
	Winner  int
}

// ElectionStats snapshots every named election, sorted by name.
func (r *Registry) ElectionStats() []ElectionInfo {
	var out []ElectionInfo
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.RLock()
		for name, e := range sh.elections {
			info := ElectionInfo{Name: name, Epoch: e.Epoch(), Resets: e.Resets()}
			if id, _, decided := e.Winner(); decided {
				info.Decided, info.Winner = true, id
			}
			out = append(out, info)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Close recycles every named election's current-epoch slot back into
// the arena and empties the registry. The caller must guarantee that no
// process is still stepping on any named object — for a server, that
// means all connections have drained. Named mutexes need no recycling
// of their own: each holds exactly one live round whose slot returns to
// the arena through the normal Lock/Unlock protocol; the final round's
// slot is simply dropped with the mutex.
func (r *Registry) Close() {
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		for name, e := range sh.elections {
			e.close()
			delete(sh.elections, name)
		}
		for name := range sh.mutexes {
			delete(sh.mutexes, name)
		}
		sh.mu.Unlock()
	}
}

// Election is a named, re-electable leader election: a chain of epochs,
// each backed by one pristine one-shot TAS slot from the arena. Within
// an epoch the paper's one-shot contract holds exactly — at most one
// TAS per process, exactly one winner ever — and Reset retires the
// epoch (recycling its slot once stragglers drain) and installs the
// next, under a strictly increasing epoch counter that serves as the
// leadership fencing value.
type Election struct {
	a      *Arena
	hint   int
	cur    atomic.Pointer[epochState]
	resets atomic.Uint64
}

type epochState struct {
	slot   *Slot
	epoch  uint64
	refs   atomic.Int64
	closed atomic.Bool
	reaped atomic.Bool
	used   []atomic.Uint64 // one bit per proc id: once per epoch
	winner atomic.Int64    // winner's id+1; 0 while undecided
}

func newElection(a *Arena, hint int) *Election {
	e := &Election{a: a, hint: hint}
	e.cur.Store(e.newEpoch(1))
	return e
}

func (e *Election) newEpoch(n uint64) *epochState {
	return &epochState{
		slot:  e.a.Get(e.hint),
		epoch: n,
		used:  make([]atomic.Uint64, (e.a.N()+63)/64),
	}
}

// Epoch returns the current epoch number (counted from 1).
func (e *Election) Epoch() uint64 { return e.cur.Load().epoch }

// Registers reports one epoch's register footprint (every epoch's slot
// is identical in shape).
func (e *Election) Registers() int { return e.cur.Load().slot.Registers() }

// Resets returns the number of completed epoch bumps.
func (e *Election) Resets() uint64 { return e.resets.Load() }

// Winner reports the current epoch's leader: its proc id, the epoch,
// and whether the epoch is decided yet.
func (e *Election) Winner() (id int, epoch uint64, decided bool) {
	es := e.cur.Load()
	w := es.winner.Load()
	return int(w) - 1, es.epoch, w != 0
}

// Participate runs proc id's (single) participation in the current
// epoch and reports whether it leads, plus the epoch it participated
// in. A proc that already participated in this epoch — including under
// an earlier connection that owned the same slot id, in the service
// case — is a loser by contract: re-running the TAS with the same
// process id would void the one-winner guarantee. Callers that need
// repeat-query semantics cache their first answer per epoch. A proc
// arriving after the epoch's leader is recorded follows it without a
// step on the slot.
func (e *Election) Participate(h *concurrent.Handle, id int) (leader bool, epoch uint64) {
	for {
		es := e.cur.Load()
		es.refs.Add(1)
		if es.closed.Load() {
			// A Reset raced in; its successor epoch is already installed.
			e.leaveEpoch(es)
			continue
		}
		bit := uint64(1) << (id % 64)
		w := &es.used[id/64]
		for {
			old := w.Load()
			if old&bit != 0 {
				e.leaveEpoch(es)
				return false, es.epoch
			}
			if w.CompareAndSwap(old, old|bit) {
				break
			}
		}
		if es.winner.Load() != 0 {
			// The epoch's leader is recorded (winner is written only
			// after a TAS returned 0), so a TAS here could only lose.
			e.leaveEpoch(es)
			return false, es.epoch
		}
		// The doorway's abortable entry; an abort on h would resolve as
		// a loss (v == 1).
		v, _ := es.slot.Obj.TASAbortable(h)
		won := v == 0
		if won {
			es.winner.Store(int64(id) + 1)
		}
		e.leaveEpoch(es)
		return won, es.epoch
	}
}

// Reset retires the given epoch and installs the next: the old slot
// recycles to the arena once stragglers drain, the fresh slot starts
// pristine (everyone may participate again), and the returned epoch is
// current. If epoch is no longer current the reset already happened —
// the error is ErrStaleEpoch and the returned value is the epoch that
// superseded it, so a caller can fence on it.
func (e *Election) Reset(epoch uint64) (uint64, error) {
	for {
		es := e.cur.Load()
		if es.epoch != epoch {
			return es.epoch, ErrStaleEpoch
		}
		next := e.newEpoch(epoch + 1)
		if e.cur.CompareAndSwap(es, next) {
			es.closed.Store(true)
			if es.refs.Load() == 0 && es.reaped.CompareAndSwap(false, true) {
				// Quiet epoch: recycle now. Anyone arriving later sees
				// closed before touching the registers.
				e.a.Put(es.slot)
			}
			e.resets.Add(1)
			return next.epoch, nil
		}
		e.a.Put(next.slot) // pristine, never published; lost the race
	}
}

// leaveEpoch drops one reference; whoever reaches zero after the epoch
// closed recycles its slot, exactly once.
func (e *Election) leaveEpoch(es *epochState) {
	if es.refs.Add(-1) == 0 && es.closed.Load() {
		if es.reaped.CompareAndSwap(false, true) {
			e.a.Put(es.slot)
		}
	}
}

// close retires the current epoch for Registry.Close: no successor is
// installed, callers are gone by contract.
func (e *Election) close() {
	es := e.cur.Load()
	es.closed.Store(true)
	if es.refs.Load() == 0 && es.reaped.CompareAndSwap(false, true) {
		e.a.Put(es.slot)
	}
}
