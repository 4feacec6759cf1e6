package arena

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/concurrent"
)

// TestRegistryMutexIdentity: repeated lookups of one name return the
// same mutex, distinct names return distinct mutexes, and lookups are
// stable across shard boundaries.
func TestRegistryMutexIdentity(t *testing.T) {
	a := newTestArena(t, Config{N: 4})
	r := NewRegistry(a, RegistryConfig{Shards: 4})
	names := []string{"a", "b", "lock/very/long/name", "", "a"}
	seen := map[string]*Mutex{}
	for _, name := range names {
		m := r.Mutex(name)
		if prev, ok := seen[name]; ok && prev != m {
			t.Fatalf("Mutex(%q) returned a different instance on repeat lookup", name)
		}
		seen[name] = m
	}
	if seen["a"] == seen["b"] {
		t.Fatal("distinct names share one mutex")
	}
	mutexes, elections := r.Len()
	if mutexes != 4 || elections != 0 {
		t.Fatalf("Len() = (%d, %d), want (4, 0)", mutexes, elections)
	}
}

// TestRegistryConcurrentCreate: many goroutines racing to create the
// same names must all agree on one instance per name (no duplicate
// construction escaping the shard lock).
func TestRegistryConcurrentCreate(t *testing.T) {
	a := newTestArena(t, Config{N: 8})
	r := NewRegistry(a, RegistryConfig{Shards: 2})
	const workers = 8
	got := make([][]*Mutex, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				got[w] = append(got[w], r.Mutex(fmt.Sprintf("lock-%d", i)))
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for i := range got[w] {
			if got[w][i] != got[0][i] {
				t.Fatalf("worker %d saw a different instance for lock-%d", w, i)
			}
		}
	}
}

// TestRegistryNamedLocksShareArena: locks created through the registry
// recycle their rounds through the shared arena free lists — the slot
// population stays O(live locks), not O(acquisitions).
func TestRegistryNamedLocksShareArena(t *testing.T) {
	a := newTestArena(t, Config{N: 2, Shards: 1, Prealloc: 2})
	r := NewRegistry(a, RegistryConfig{Shards: 1})
	for i := 0; i < 3; i++ {
		m := r.Mutex(fmt.Sprintf("lock-%d", i))
		p := m.Proc(0, concurrent.NewHandle(0, int64(i)+1))
		for j := 0; j < 50; j++ {
			tok, err := p.Lock(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Unlock(tok); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := a.TotalStats()
	if st.Puts < 100 {
		t.Fatalf("Puts = %d, want ≥ 100 (rounds not recycled)", st.Puts)
	}
	// 3 live locks at 1 round each, plus recycling slack; anywhere near
	// the 150 acquisitions would mean recycling is broken.
	if st.Slots > 20 {
		t.Fatalf("Slots = %d after 150 acquisitions on 3 locks (recycling broken?)", st.Slots)
	}
}

// TestRegistryElectionEpochs: within an epoch exactly one leader, and
// participants after it follow from the recorded winner without a step;
// Reset bumps the epoch, recycles the old slot, and everyone — including
// the old leader — may run again in the fresh epoch.
func TestRegistryElectionEpochs(t *testing.T) {
	a := newTestArena(t, Config{N: 4, Shards: 1, Prealloc: 1})
	r := NewRegistry(a, RegistryConfig{Shards: 2})
	e := r.Election("leader/x")
	if e != r.Election("leader/x") {
		t.Fatal("Election lookups disagree")
	}
	if e.Epoch() != 1 {
		t.Fatalf("fresh election epoch = %d, want 1", e.Epoch())
	}
	winners := 0
	for id := 0; id < 4; id++ {
		h := concurrent.NewHandle(id, int64(id)+1)
		leader, epoch := e.Participate(h, id)
		if epoch != 1 {
			t.Fatalf("participation landed in epoch %d, want 1", epoch)
		}
		if winners > 0 && h.Steps() != 0 {
			t.Errorf("proc %d took %d steps after the leader was recorded, want 0", id, h.Steps())
		}
		if leader {
			winners++
		}
	}
	if winners != 1 {
		t.Fatalf("%d winners in epoch 1, want 1", winners)
	}
	if id, epoch, decided := e.Winner(); !decided || epoch != 1 || id < 0 || id > 3 {
		t.Fatalf("Winner() = (%d, %d, %v), want a decided epoch-1 leader", id, epoch, decided)
	}
	// A repeat participation in the same epoch is a loser by contract.
	if leader, _ := e.Participate(concurrent.NewHandle(0, 99), 0); leader {
		t.Fatal("repeat participation won the same epoch")
	}

	putsBefore := a.TotalStats().Puts
	epoch, err := e.Reset(1)
	if err != nil || epoch != 2 {
		t.Fatalf("Reset(1) = (%d, %v), want (2, nil)", epoch, err)
	}
	if got := a.TotalStats().Puts - putsBefore; got != 1 {
		t.Fatalf("Reset recycled %d slots, want 1", got)
	}
	if got, err := e.Reset(1); !errors.Is(err, ErrStaleEpoch) || got != 2 {
		t.Fatalf("stale Reset(1) = (%d, %v), want (2, ErrStaleEpoch)", got, err)
	}
	// Fresh epoch: everyone participates again, exactly one leader.
	winners = 0
	for id := 0; id < 4; id++ {
		h := concurrent.NewHandle(id, int64(id)+11)
		leader, epoch := e.Participate(h, id)
		if epoch != 2 {
			t.Fatalf("participation landed in epoch %d, want 2", epoch)
		}
		if winners == 0 && h.Steps() == 0 {
			t.Errorf("proc %d took no step before epoch 2 had a leader", id)
		}
		if leader {
			winners++
		}
	}
	if winners != 1 {
		t.Fatalf("%d winners in epoch 2, want 1", winners)
	}

	// Close recycles the live epoch's slot.
	putsBefore = a.TotalStats().Puts
	r.Close()
	if got := a.TotalStats().Puts - putsBefore; got != 1 {
		t.Fatalf("Close recycled %d slots, want 1", got)
	}
	if m, e := r.Len(); m != 0 || e != 0 {
		t.Fatalf("Len() after Close = (%d, %d), want (0, 0)", m, e)
	}
}

// TestElectionResetRacingParticipate: concurrent Elect and Reset must
// keep every epoch at exactly one leader, with no slot corruption —
// participants caught mid-TAS hold the epoch open until they drain.
func TestElectionResetRacingParticipate(t *testing.T) {
	const (
		workers = 4
		resets  = 40
	)
	a := newTestArena(t, Config{N: workers})
	r := NewRegistry(a, RegistryConfig{})
	e := r.Election("leader/race")
	leadersPerEpoch := sync.Map{} // epoch -> *atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			h := concurrent.NewHandle(id, int64(id)*7919+1)
			for {
				select {
				case <-stop:
					return
				default:
				}
				leader, epoch := e.Participate(h, id)
				if leader {
					c, _ := leadersPerEpoch.LoadOrStore(epoch, new(atomic.Int64))
					c.(*atomic.Int64).Add(1)
				}
			}
		}(w)
	}
	for i := 0; i < resets; i++ {
		epoch := e.Epoch()
		if _, err := e.Reset(epoch); err != nil && !errors.Is(err, ErrStaleEpoch) {
			t.Fatalf("Reset(%d): %v", epoch, err)
		}
	}
	close(stop)
	wg.Wait()
	leadersPerEpoch.Range(func(k, v interface{}) bool {
		if n := v.(*atomic.Int64).Load(); n != 1 {
			t.Errorf("epoch %d elected %d leaders, want 1", k, n)
		}
		return true
	})
	if e.Resets() != resets {
		t.Errorf("resets = %d, want %d", e.Resets(), resets)
	}
}

// TestRegistryEvict: idle names are retired after MaxIdle, held or
// active names survive, evicted names recreate fresh, and the eviction
// count is reported per name and in total.
func TestRegistryEvict(t *testing.T) {
	a := newTestArena(t, Config{N: 2, Shards: 1, Prealloc: 2})
	r := NewRegistry(a, RegistryConfig{Shards: 1, MaxIdle: time.Millisecond})

	idle := r.Mutex("idle")
	held := r.Mutex("held")
	hp := held.Proc(0, concurrent.NewHandle(0, 1))
	tok, err := hp.Lock(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// First scan stamps activity; nothing is evicted yet.
	if got := r.Evict(); got != 0 {
		t.Fatalf("first Evict() = %d, want 0 (names just stamped)", got)
	}
	time.Sleep(5 * time.Millisecond)
	putsBefore := a.TotalStats().Puts
	if got := r.Evict(); got != 1 {
		t.Fatalf("Evict() = %d, want 1 (only the idle, unheld name)", got)
	}
	if got := a.TotalStats().Puts - putsBefore; got != 1 {
		t.Fatalf("eviction recycled %d slots, want 1", got)
	}
	if !idle.Retired() {
		t.Fatal("evicted mutex not retired")
	}
	if held.Retired() {
		t.Fatal("held mutex retired")
	}
	if r.Evictions() != 1 {
		t.Fatalf("Evictions() = %d, want 1", r.Evictions())
	}

	// A stale proc observes ErrRetired; a fresh lookup starts over and
	// reports the name's eviction history.
	ip := idle.Proc(0, concurrent.NewHandle(0, 2))
	if _, lockErr := ip.Lock(context.Background()); !errors.Is(lockErr, ErrRetired) {
		t.Fatalf("Lock on evicted mutex = %v, want ErrRetired", lockErr)
	}
	fresh := r.Mutex("idle")
	if fresh == idle {
		t.Fatal("evicted name resolved to the retired instance")
	}
	fp := fresh.Proc(0, concurrent.NewHandle(0, 3))
	ftok, err := fp.Lock(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := fp.Unlock(ftok); err != nil {
		t.Fatal(err)
	}
	for _, st := range r.Stats() {
		if st.Name == "idle" && st.Evictions != 1 {
			t.Fatalf("NamedStats(idle).Evictions = %d, want 1", st.Evictions)
		}
	}
	if err := hp.Unlock(tok); err != nil {
		t.Fatal(err)
	}

	// MaxIdle zero disables eviction entirely.
	r2 := NewRegistry(a, RegistryConfig{})
	r2.Mutex("x")
	if got := r2.Evict(); got != 0 {
		t.Fatalf("Evict() with MaxIdle=0 = %d, want 0", got)
	}
}

// TestRegistryStats: per-name counters reflect each lock's own traffic,
// include the live holder's token, and come back sorted by name.
func TestRegistryStats(t *testing.T) {
	a := newTestArena(t, Config{N: 2})
	r := NewRegistry(a, RegistryConfig{Shards: 4})
	ops := map[string]int{"zeta": 7, "alpha": 3}
	for name, k := range ops {
		p := r.Mutex(name).Proc(0, concurrent.NewHandle(0, 1))
		for i := 0; i < k; i++ {
			tok, err := p.Lock(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Unlock(tok); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := r.Stats()
	if len(st) != 2 || st[0].Name != "alpha" || st[1].Name != "zeta" {
		t.Fatalf("Stats() names = %v, want [alpha zeta]", st)
	}
	if st[0].Rounds != 3 || st[1].Rounds != 7 {
		t.Fatalf("Stats() rounds = %d/%d, want 3/7", st[0].Rounds, st[1].Rounds)
	}
	p := r.Mutex("alpha").Proc(1, concurrent.NewHandle(1, 9))
	tok, err := p.Lock(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range r.Stats() {
		if s.Name == "alpha" && s.HolderToken != tok {
			t.Fatalf("HolderToken = %d, want %d", s.HolderToken, tok)
		}
	}
	if err := p.Unlock(tok); err != nil {
		t.Fatal(err)
	}

	// Election standing shows up in ElectionStats.
	e := r.Election("leader/s")
	e.Participate(concurrent.NewHandle(0, 5), 0)
	es := r.ElectionStats()
	if len(es) != 1 || es[0].Name != "leader/s" || !es[0].Decided || es[0].Epoch != 1 {
		t.Fatalf("ElectionStats() = %+v, want one decided epoch-1 election", es)
	}
}
