package dst

import (
	"container/heap"
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// simEpoch is the fixed instant at which every simulation begins. Using
// a constant (rather than time.Now at construction) keeps absolute
// timestamps — lease deadlines, coarse-clock readings, STATS uptime —
// identical across runs, which is part of the byte-identical-trace
// contract.
var simEpoch = time.Unix(1_700_000_000, 0).UTC()

// SimClock is a deterministic virtual clock and cooperative scheduler.
//
// Every goroutine of the simulated service is an *actor*, spawned via
// Go (or AfterFunc) and therefore known to the scheduler. An actor is
// either runnable or parked; parking happens inside Sleep and inside
// fabric blocking calls (Read, Accept). The invariant that makes the
// simulation deterministic: at most one actor runs at a time, and
// virtual time advances only when the runnable count hits zero — the
// last actor to park pops the earliest pending event from the heap,
// advances Now to its timestamp, and fires it, which wakes exactly the
// actors that event designates. Events with equal timestamps fire in
// schedule order (a monotone sequence number breaks ties), so the whole
// schedule is a pure function of the program and the fault seed.
//
// Wake-ups flow through channel closes performed while no service actor
// is running, and all scheduler state is guarded by one mutex, so the
// serialization is visible to the race detector: the same binary is
// -race-clean at any GOMAXPROCS with an identical trace.
//
// If every actor is parked and no event remains, the run is stuck: the
// scheduler records a deadlock error naming each parked actor (this is
// the "no stuck waiters after drain" detector) and wakes everyone so
// the run can unwind.
type SimClock struct {
	mu      sync.Mutex
	nowNano atomic.Int64 // absolute virtual unix-nanos; atomic so Now never locks

	seq      uint64
	parkSeq  uint64 // monotone park-order stamp; deadlockLocked wakes in this order
	events   eventHeap
	actors   int
	runnable int
	parked   map[*waiter]struct{}

	pendingWakes []chan struct{}

	onStep func(now time.Duration)

	traceHash uint64 // FNV-1a over every fired event's trace line
	fired     uint64

	deadlockErr error
	done        chan struct{}
	doneOnce    sync.Once
}

// NewSimClock returns a simulation clock whose virtual time starts at a
// fixed epoch.
func NewSimClock() *SimClock {
	c := &SimClock{
		parked:    make(map[*waiter]struct{}),
		traceHash: 14695981039346656037, // FNV-1a 64 offset basis
		done:      make(chan struct{}),
	}
	c.nowNano.Store(simEpoch.UnixNano())
	return c
}

// OnStep registers a callback invoked after every fired event, while no
// actor is running — the hook where a scenario checks its invariants.
// The callback receives the virtual time since the epoch. It may read
// clock and service state but must not park (no Sleep, no blocking
// fabric calls). Set it before spawning actors.
func (c *SimClock) OnStep(f func(now time.Duration)) { c.onStep = f }

// TraceHash returns the rolling hash over all fired events and the
// event count. Two runs with the same seed must agree on both.
func (c *SimClock) TraceHash() (hash uint64, events uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.traceHash, c.fired
}

// VirtualNow reports how much virtual time has elapsed since the epoch.
func (c *SimClock) VirtualNow() time.Duration {
	return time.Duration(c.nowNano.Load() - simEpoch.UnixNano())
}

// Now implements Clock. It is lock-free so invariant callbacks and
// service hot paths can call it without ordering constraints.
func (c *SimClock) Now() time.Time { return time.Unix(0, c.nowNano.Load()).UTC() }

// Since implements Clock.
func (c *SimClock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

// Sleep implements Clock: the calling actor parks until virtual time
// reaches Now+d. A non-positive d parks for one scheduling step — a
// deterministic yield.
func (c *SimClock) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	c.mu.Lock()
	w := &waiter{ch: make(chan struct{}), label: "sleep " + d.String()}
	w.deadline = c.scheduleLocked(d, "wake "+d.String(), w, true, nil, nil)
	c.parkLocked(w)
	c.mu.Unlock()
}

// Virtual poll intervals of Await and Idle. Every simulated trace
// depends on them: changing either moves the schedule of every drain
// and every contended ACQUIRE.
const (
	awaitPoll = 500 * time.Microsecond
	idlePoll  = 200 * time.Microsecond
)

// Await implements Clock by polling: done first, then ctx, then one
// awaitPoll of virtual sleep.
func (c *SimClock) Await(ctx context.Context, done <-chan struct{}) error {
	for {
		select {
		case <-done:
			return nil
		default:
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		c.Sleep(awaitPoll)
	}
}

// Idle implements Clock: the actor parks for idlePoll of virtual time.
// It ignores w: an Abort reaches a simulated waiter when the park ends.
func (c *SimClock) Idle(*Wait) { c.Sleep(idlePoll) }

// AfterFunc implements Clock: f runs as a new actor once virtual time
// reaches Now+d, unless stopped first.
func (c *SimClock) AfterFunc(d time.Duration, f func()) Timer {
	if d < 0 {
		d = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.scheduleLocked(d, "timer "+d.String(), nil, false, nil, func() {
		go func() { //taslint:allow detclock -- the scheduler spawning its own managed timer actor; it holds the run token until the callback parks or finishes
			f()
			c.finish()
		}()
	})
	return &simTimer{c: c, e: e}
}

// Go implements Clock: f becomes a managed actor. It is born parked and
// starts via a zero-delay spawn event, so actors begin running one at a
// time in spawn order, interleaved deterministically with everything
// else on the heap.
func (c *SimClock) Go(f func()) {
	c.mu.Lock()
	c.actors++
	w := &waiter{ch: make(chan struct{}), label: "spawn"}
	c.parkSeq++
	w.parkSeq = c.parkSeq
	c.parked[w] = struct{}{}
	c.scheduleLocked(0, "spawn", w, false, nil, nil)
	c.mu.Unlock()
	go func() { //taslint:allow detclock -- this IS Clock.Go: the goroutine is born parked and runs only when the event heap hands it the token
		<-w.ch
		if !w.deadlock {
			f()
		}
		c.finish()
	}()
}

// Wait kicks the scheduler and blocks until every actor has finished
// and the event heap has drained. It returns the deadlock error if the
// run ever stuck with actors parked and no event pending.
func (c *SimClock) Wait() error {
	c.mu.Lock()
	if c.runnable == 0 {
		c.stepLocked()
	}
	wakes := c.takeWakesLocked()
	c.mu.Unlock()
	for _, ch := range wakes {
		close(ch)
	}
	<-c.done
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.deadlockErr
}

// ---- scheduler internals ----

// waiter is one parked actor. Blocking call sites allocate a waiter,
// register interest (a timeout event, a stream's reader slot, a
// listener's accept slot), park, and on resume inspect timedOut /
// deadlock to decide what their blocking call returns.
type waiter struct {
	ch       chan struct{}
	label    string
	parkSeq  uint64 // stamp of the most recent park, for deterministic mass wakes
	woken    bool
	timedOut bool
	deadlock bool
	deadline *event // pending timeout event to cancel on early wake
}

type event struct {
	at        int64
	seq       uint64
	label     string
	cancelled bool
	fired     bool

	// Exactly one of the following is set.
	w       *waiter // wake this waiter; timeout says how
	timeout bool
	deliver func() // mutate fabric state under c.mu (may wakeLocked)
	spawn   func() // start a goroutine, run outside c.mu after the step
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}
func (h eventHeap) Peek() *event        { return h[0] }
func (c *SimClock) pushLocked(e *event) { heap.Push(&c.events, e) }

// scheduleLocked enqueues an event delay from virtual now. Exactly one
// of w / deliver / spawn describes its effect.
func (c *SimClock) scheduleLocked(delay time.Duration, label string, w *waiter, timeout bool, deliver func(), spawn func()) *event {
	c.seq++
	e := &event{
		at:      c.nowNano.Load() + int64(delay),
		seq:     c.seq,
		label:   label,
		w:       w,
		timeout: timeout,
		deliver: deliver,
		spawn:   spawn,
	}
	c.pushLocked(e)
	return e
}

// scheduleAtLocked is scheduleLocked with an absolute virtual deadline,
// clamped to now (events never fire in the past).
func (c *SimClock) scheduleAtLocked(at int64, label string, w *waiter, timeout bool, deliver func()) *event {
	now := c.nowNano.Load()
	if at < now {
		at = now
	}
	c.seq++
	e := &event{at: at, seq: c.seq, label: label, w: w, timeout: timeout, deliver: deliver}
	c.pushLocked(e)
	return e
}

// wakeLocked marks w runnable. The actual channel close is deferred to
// takeWakesLocked so the waking actor resumes only after the current
// step (including the OnStep callback) completes.
func (c *SimClock) wakeLocked(w *waiter, timedOut, deadlock bool) {
	if w == nil || w.woken {
		return
	}
	w.woken = true
	w.timedOut = timedOut
	w.deadlock = deadlock
	if w.deadline != nil {
		w.deadline.cancelled = true
		w.deadline = nil
	}
	delete(c.parked, w)
	c.runnable++
	c.pendingWakes = append(c.pendingWakes, w.ch)
}

func (c *SimClock) takeWakesLocked() []chan struct{} {
	wakes := c.pendingWakes
	c.pendingWakes = nil
	return wakes
}

// parkLocked blocks the calling actor until some event wakes it. Called
// with c.mu held; returns with c.mu held. As the actor parks it runs
// the scheduler: if it was the last runnable actor it fires events
// (advancing virtual time) until someone — possibly itself — wakes.
func (c *SimClock) parkLocked(w *waiter) {
	c.runnable--
	c.parkSeq++
	w.parkSeq = c.parkSeq
	c.parked[w] = struct{}{}
	c.stepLocked()
	wakes := c.takeWakesLocked()
	c.mu.Unlock()
	for _, ch := range wakes {
		close(ch)
	}
	<-w.ch
	c.mu.Lock()
}

// finish retires the calling actor. If it was the last runnable one,
// its parting act is to run the scheduler forward.
func (c *SimClock) finish() {
	c.mu.Lock()
	c.actors--
	c.runnable--
	if c.runnable == 0 {
		c.stepLocked()
	}
	wakes := c.takeWakesLocked()
	c.mu.Unlock()
	for _, ch := range wakes {
		close(ch)
	}
}

// stepLocked fires events in (time, seq) order until some actor is
// runnable again. Each fired event is recorded in the trace, then the
// OnStep callback (if any) runs with no actor running. Called and
// returns with c.mu held, but releases it around callbacks; during
// those windows every actor is parked or not yet resumed, so the
// callback has exclusive access to service state.
func (c *SimClock) stepLocked() {
	for c.runnable == 0 {
		e := c.popRunnableLocked()
		if e == nil {
			if c.actors == 0 {
				c.doneOnce.Do(func() { close(c.done) })
			} else {
				c.deadlockLocked()
			}
			return
		}
		if e.at > c.nowNano.Load() {
			c.nowNano.Store(e.at)
		}
		e.fired = true
		c.recordLocked(e)
		switch {
		case e.w != nil:
			c.wakeLocked(e.w, e.timeout, false)
		case e.deliver != nil:
			e.deliver()
		}
		cb := c.onStep
		post := e.spawn
		if e.spawn != nil {
			c.actors++
			c.runnable++
		}
		if cb != nil || post != nil {
			now := time.Duration(c.nowNano.Load() - simEpoch.UnixNano())
			wakes := c.takeWakesLocked()
			c.mu.Unlock()
			if cb != nil {
				cb(now)
			}
			for _, ch := range wakes {
				close(ch)
			}
			if post != nil {
				post()
			}
			c.mu.Lock()
			if len(wakes) > 0 || post != nil {
				// The step handed the run to an actor, which may have
				// parked again and be stepping by now; a second stepper
				// would break the one-actor-at-a-time order.
				return
			}
		}
	}
}

// popRunnableLocked pops the earliest non-cancelled event, or nil.
func (c *SimClock) popRunnableLocked() *event {
	for len(c.events) > 0 {
		e := heap.Pop(&c.events).(*event)
		if !e.cancelled {
			return e
		}
	}
	return nil
}

// recordLocked folds the fired event's trace line into the trace hash.
// The line contains only deterministic inputs: fire index, virtual time,
// and the label built at schedule time.
func (c *SimClock) recordLocked(e *event) {
	c.fired++
	line := fmt.Sprintf("%06d +%dus %s", c.fired, (e.at-simEpoch.UnixNano())/1000, e.label)
	h := c.traceHash
	for i := 0; i < len(line); i++ {
		h ^= uint64(line[i])
		h *= 1099511628211 // FNV-1a 64 prime
	}
	c.traceHash = h
}

// deadlockLocked handles the every-actor-parked, no-event-pending state:
// record which actors are stuck, then wake them all with the deadlock
// flag so their blocking calls fail and the run unwinds.
func (c *SimClock) deadlockLocked() {
	if c.deadlockErr == nil {
		labels := make([]string, 0, len(c.parked))
		for w := range c.parked {
			labels = append(labels, w.label)
		}
		sort.Strings(labels)
		c.deadlockErr = fmt.Errorf("dst: deadlock at +%v: %d actor(s) parked with no pending event: %v",
			time.Duration(c.nowNano.Load()-simEpoch.UnixNano()), len(labels), labels)
		c.recordLocked(&event{at: c.nowNano.Load(), label: "DEADLOCK"})
	}
	// Wake in park order, not map order: the unwind after a deadlock is
	// still part of the recorded schedule, and Go's map iteration seed
	// must not leak into it (taslint:detiter is the gate for this).
	stuck := make([]*waiter, 0, len(c.parked))
	for w := range c.parked {
		stuck = append(stuck, w)
	}
	sort.Slice(stuck, func(i, j int) bool { return stuck[i].parkSeq < stuck[j].parkSeq })
	for _, w := range stuck {
		c.wakeLocked(w, false, true)
	}
}

type simTimer struct {
	c *SimClock
	e *event
}

// Stop cancels the pending timer call, reporting whether it was still
// pending.
func (t *simTimer) Stop() bool {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	if t.e.fired || t.e.cancelled {
		return false
	}
	t.e.cancelled = true
	return true
}
