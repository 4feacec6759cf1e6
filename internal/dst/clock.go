// Package dst is the deterministic-simulation-testing layer: a seeded
// virtual clock whose time advances only when every actor is parked, and
// an in-memory net.Conn/net.Listener fabric with per-link fault
// injection. Together they let an entire tasd instance plus N tasclients
// run effectively single-threaded under one splitmix64-seeded scheduler,
// so any failure replays byte-identically from its seed
// (FoundationDB-style simulation, applied to the lock service).
//
// The package has two halves:
//
//   - Clock: the injection seam. Production code asks a Clock for
//     Now/Sleep/AfterFunc and spawns goroutines through Go. Real (the
//     default) forwards to the time package and the go statement, with
//     zero added cost on the hot path. SimClock implements the same
//     interface over a virtual event heap. The two waits a service
//     cannot express as a Sleep — blocking on a channel (Await) and a
//     busy-wait iteration (Idle) — are Clock methods too. They are the
//     service's only simulation-aware waits, so the server has one code
//     path: it never asks which clock it was given, and the simulation
//     runs the server that ships.
//
//   - Fabric: an in-memory transport that satisfies net.Listener and
//     net.Conn, scheduling every byte delivery as a SimClock event so
//     message timing, drops, duplication, corruption, resets and
//     half-open partitions are all drawn from one seeded stream.
//
// The seed→schedule contract: given the same seed and the same program,
// the sequence of fired events — and therefore every interleaving the
// service observes — is identical across runs and across GOMAXPROCS
// settings, because at most one actor is runnable at a time and every
// wake-up flows through the event heap in (time, sequence) order.
package dst

import (
	"context"
	"runtime"
	"time"
)

// Clock abstracts time and goroutine spawning so a service can run
// either on the wall clock or inside a SimClock. Implementations must be
// safe for concurrent use.
type Clock interface {
	// Now returns the current (real or virtual) time.
	Now() time.Time
	// Since is Now().Sub(t), provided so call sites read naturally.
	Since(t time.Time) time.Duration
	// Sleep blocks the calling actor for d. Under simulation this
	// parks the actor and lets virtual time advance; a non-positive d
	// still parks for one scheduling step (a deterministic yield).
	Sleep(d time.Duration)
	// AfterFunc schedules f to run after d in its own actor. Stop
	// cancels it if it has not fired yet.
	AfterFunc(d time.Duration, f func()) Timer
	// Go runs f concurrently. Under simulation the spawned goroutine
	// is a managed actor: it starts at the current virtual time, in
	// spawn order, and the scheduler tracks its parking. All
	// goroutines of a simulated service must be spawned through Go —
	// a bare go statement would be invisible to the scheduler and
	// break determinism.
	Go(f func())
	// Await blocks until done is closed (nil) or ctx is done
	// (ctx.Err()). Under simulation a channel close is invisible to
	// the scheduler, so Await checks done, then ctx, then sleeps a
	// fixed virtual poll interval and repeats; a simulated caller's
	// ctx should therefore be one only the simulation cancels, never a
	// wall-clock deadline.
	Await(ctx context.Context, done <-chan struct{}) error
	// Idle paces one iteration of a busy-wait, the wait's only pacer.
	// On the wall clock a wait's first iterations yield the processor
	// and later ones park for at most MaxPark, or until w is woken.
	// Under simulation Idle parks the actor for a short virtual
	// interval, since a spinning actor would keep the scheduler from
	// ever advancing time, and never on the wall clock.
	Idle(w *Wait)
}

// Wait carries one waiter's pacing from one Idle to the next; make it
// with NewWait. Only Wake may be called from another goroutine.
type Wait struct {
	spins int
	wake  chan struct{} // capacity 1, so a Wake before the park still ends it
	timer *time.Timer   // reused: a timer per park would allocate
}

// NewWait returns a fresh wait.
func NewWait() Wait { return Wait{wake: make(chan struct{}, 1)} }

// Reset begins a new wait: the next wall-clock Idle yields again.
func (w *Wait) Reset() { w.spins = 0 }

// Wake ends the waiter's current wall-clock park, or its next one.
func (w *Wait) Wake() {
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// On the wall clock a wait's first Idles yield the processor; from the
// parkAfter-th on, each parks for at most MaxPark, which bounds how late
// a waiter sees its give-up condition flip.
const (
	parkAfter = 32
	MaxPark   = 10 * time.Microsecond
)

// Timer is the handle returned by Clock.AfterFunc.
type Timer interface {
	// Stop cancels the pending call, reporting whether it was still
	// pending (mirrors time.Timer.Stop).
	Stop() bool
}

// Real is the wall-clock Clock: the time package plus the go statement.
var Real Clock = realClock{}

type realClock struct{}

// The realClock methods are the one sanctioned boundary between the
// deterministic world and the time package: every other file in the
// deterministic packages reaches the wall clock only through them.
func (realClock) Now() time.Time                  { return time.Now() }    //taslint:allow detclock -- Real is the wall-clock passthrough; this is the boundary the rule protects
func (realClock) Since(t time.Time) time.Duration { return time.Since(t) } //taslint:allow detclock -- Real is the wall-clock passthrough
func (realClock) Sleep(d time.Duration)           { time.Sleep(d) }        //taslint:allow detclock -- Real is the wall-clock passthrough
func (realClock) Go(f func())                     { go f() }               //taslint:allow detclock -- Real maps Clock.Go to a plain goroutine by definition

func (realClock) Await(ctx context.Context, done <-chan struct{}) error {
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (realClock) Idle(w *Wait) {
	w.spins++
	if w.spins < parkAfter {
		runtime.Gosched()
		return
	}
	if w.timer == nil {
		w.timer = time.NewTimer(MaxPark) //taslint:allow detclock -- Real is the wall-clock passthrough
	} else {
		w.timer.Reset(MaxPark)
	}
	select {
	case <-w.wake:
		w.timer.Stop()
	case <-w.timer.C:
	}
}

func (realClock) AfterFunc(d time.Duration, f func()) Timer {
	return realTimer{t: time.AfterFunc(d, f)} //taslint:allow detclock -- Real is the wall-clock passthrough
}

type realTimer struct{ t *time.Timer }

func (rt realTimer) Stop() bool { return rt.t.Stop() }
