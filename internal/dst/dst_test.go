package dst

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestSimClockSleepOrder(t *testing.T) {
	clk := NewSimClock()
	var mu []string
	for _, a := range []struct {
		name string
		d    time.Duration
	}{{"c", 30 * time.Millisecond}, {"a", 10 * time.Millisecond}, {"b", 20 * time.Millisecond}} {
		a := a
		clk.Go(func() {
			clk.Sleep(a.d)
			mu = append(mu, a.name) // single-runnable: no lock needed
		})
	}
	if err := clk.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if got := strings.Join(mu, ""); got != "abc" {
		t.Fatalf("wake order = %q, want abc", got)
	}
	if got, want := clk.VirtualNow(), 30*time.Millisecond; got != want {
		t.Fatalf("VirtualNow = %v, want %v", got, want)
	}
}

func TestSimClockAfterFunc(t *testing.T) {
	clk := NewSimClock()
	var fired, stopped atomic.Bool
	clk.Go(func() {
		tm := clk.AfterFunc(5*time.Millisecond, func() { fired.Store(true) })
		tm2 := clk.AfterFunc(50*time.Millisecond, func() { stopped.Store(true) })
		clk.Sleep(10 * time.Millisecond)
		if !tm2.Stop() {
			t.Error("Stop on pending timer = false, want true")
		}
		if tm.Stop() {
			t.Error("Stop on fired timer = true, want false")
		}
		_ = tm
	})
	if err := clk.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if !fired.Load() {
		t.Error("5ms AfterFunc never fired")
	}
	if stopped.Load() {
		t.Error("stopped AfterFunc fired anyway")
	}
}

// TestSimClockOneStepperAtATime: the goroutine that ran a step and
// woke an actor must stop stepping. If it kept going, it could take the
// clock's lock while the woken actor, already parked again, sits in its
// own OnStep callback with the lock released, and two steps would then
// run at once. Every write below schedules a delivery that wakes nobody,
// so a stepper often finds no runnable actor; the slow callback widens
// the window in which a second stepper could slip in.
func TestSimClockOneStepperAtATime(t *testing.T) {
	clk := NewSimClock()
	var in, overlaps atomic.Int32
	clk.OnStep(func(time.Duration) {
		if in.Add(1) > 1 {
			overlaps.Add(1)
		}
		for i := 0; i < 50; i++ {
			runtime.Gosched()
		}
		in.Add(-1)
	})
	f := NewFabric(clk, 3)
	if _, err := f.Listen("sink"); err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 8; a++ {
		clk.Go(func() {
			nc, err := f.Dial("sink")
			if err != nil {
				return
			}
			for k := 0; k < 1000; k++ {
				nc.Write([]byte{byte(k)}) // nobody reads: the delivery wakes no one
				clk.Sleep(0)
			}
		})
	}
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
	if n := overlaps.Load(); n > 0 {
		t.Fatalf("OnStep ran concurrently with itself %d time(s): two goroutines were stepping the clock", n)
	}
}

func TestSimClockDeadlockDetection(t *testing.T) {
	clk := NewSimClock()
	f := NewFabric(clk, 1)
	ln, err := f.Listen("tasd")
	if err != nil {
		t.Fatal(err)
	}
	var acceptErr error
	clk.Go(func() {
		// Nothing ever dials: this park can never be satisfied.
		_, acceptErr = ln.Accept()
	})
	err = clk.Wait()
	if err == nil {
		t.Fatal("Wait returned nil for a stuck accept, want deadlock error")
	}
	if !strings.Contains(err.Error(), "accept tasd") {
		t.Errorf("deadlock error %q does not name the parked actor", err)
	}
	if !errors.Is(acceptErr, ErrSimDeadlock) {
		t.Errorf("Accept error = %v, want ErrSimDeadlock", acceptErr)
	}
}

// echoOnce accepts one conn and echoes every read back to the writer.
func echoOnce(t *testing.T, clk *SimClock, ln net.Listener) {
	clk.Go(func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		buf := make([]byte, 256)
		for {
			n, err := nc.Read(buf)
			if err != nil {
				nc.Close()
				return
			}
			if _, err := nc.Write(buf[:n]); err != nil {
				return
			}
		}
	})
}

func TestFabricRoundTrip(t *testing.T) {
	clk := NewSimClock()
	f := NewFabric(clk, 7)
	f.SetFaults(Faults{DelayMin: time.Millisecond, DelayMax: 5 * time.Millisecond})
	ln, err := f.Listen("tasd")
	if err != nil {
		t.Fatal(err)
	}
	echoOnce(t, clk, ln)
	var got []byte
	clk.Go(func() {
		nc, err := f.Dial("tasd")
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		msgs := []string{"hello ", "fabric ", "world"}
		for _, m := range msgs {
			if _, err := nc.Write([]byte(m)); err != nil {
				t.Errorf("Write: %v", err)
			}
		}
		want := []byte("hello fabric world")
		buf := make([]byte, 1)
		for len(got) < len(want) {
			n, err := nc.Read(buf)
			if err != nil {
				t.Errorf("Read after %q: %v", got, err)
				break
			}
			got = append(got, buf[:n]...)
		}
		nc.Close()
		ln.Close()
	})
	if err := clk.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if !bytes.Equal(got, []byte("hello fabric world")) {
		t.Fatalf("echoed %q", got)
	}
}

func TestFabricReadDeadline(t *testing.T) {
	clk := NewSimClock()
	f := NewFabric(clk, 3)
	ln, _ := f.Listen("tasd")
	var readErr error
	var waited time.Duration
	clk.Go(func() {
		nc, err := f.Dial("tasd")
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		start := clk.Now()
		nc.SetReadDeadline(clk.Now().Add(10 * time.Millisecond))
		_, readErr = nc.Read(make([]byte, 1))
		waited = clk.Since(start)
		nc.Close()
		ln.Close()
	})
	clk.Go(func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		// Hold the conn open, never write: the reader must time out.
		clk.Sleep(50 * time.Millisecond)
		nc.Close()
	})
	if err := clk.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	var ne net.Error
	if !errors.As(readErr, &ne) || !ne.Timeout() {
		t.Fatalf("Read error = %v, want net.Error timeout", readErr)
	}
	if !errors.Is(readErr, os.ErrDeadlineExceeded) {
		t.Fatalf("Read error = %v, want errors.Is(_, os.ErrDeadlineExceeded)", readErr)
	}
	if waited != 10*time.Millisecond {
		t.Fatalf("read timed out after %v, want exactly 10ms of virtual time", waited)
	}
}

func TestFabricPastDeadlineWakesParkedReader(t *testing.T) {
	clk := NewSimClock()
	f := NewFabric(clk, 3)
	ln, _ := f.Listen("tasd")
	var readErr error
	clk.Go(func() {
		nc, _ := ln.Accept()
		_, readErr = nc.Read(make([]byte, 1)) // parks with no deadline
		nc.Close()
	})
	clk.Go(func() {
		nc, err := f.Dial("tasd")
		if err != nil {
			return
		}
		clk.Sleep(5 * time.Millisecond)
		// The drain move: expire the peer's read from outside.
		nc.(*SimConn).peer.SetReadDeadline(clk.Now())
		clk.Sleep(5 * time.Millisecond)
		nc.Close()
		ln.Close()
	})
	if err := clk.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	var ne net.Error
	if !errors.As(readErr, &ne) || !ne.Timeout() {
		t.Fatalf("parked Read returned %v, want timeout", readErr)
	}
}

func TestFabricCloseEOFAndReset(t *testing.T) {
	clk := NewSimClock()
	f := NewFabric(clk, 9)
	ln, _ := f.Listen("tasd")
	var eofErr, resetErr error
	clk.Go(func() { // server: read both conns to their end state
		for i := 0; i < 2; i++ {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			clk.Go(func() {
				buf := make([]byte, 16)
				for {
					_, err := nc.Read(buf)
					if err != nil {
						if i == 0 {
							eofErr = err
						} else {
							resetErr = err
						}
						nc.Close()
						return
					}
				}
			})
		}
		ln.Close()
	})
	clk.Go(func() {
		a, _ := f.Dial("tasd")
		a.Write([]byte("bye"))
		a.Close() // clean: peer reads "bye" then EOF
		b, _ := f.Dial("tasd")
		b.Write([]byte("boom"))
		clk.Sleep(time.Millisecond)
		b.(*SimConn).Reset() // abrupt: peer sees a reset
		clk.Sleep(time.Millisecond)
	})
	if err := clk.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if eofErr != io.EOF {
		t.Errorf("clean close surfaced %v, want io.EOF", eofErr)
	}
	var ne net.Error
	if !errors.As(resetErr, &ne) || ne.Timeout() {
		t.Errorf("reset surfaced %v, want non-timeout net.Error", resetErr)
	}
}

func TestFabricPartitionHoldsAndHeals(t *testing.T) {
	clk := NewSimClock()
	f := NewFabric(clk, 11)
	ln, _ := f.Listen("tasd")
	echoOnce(t, clk, ln)
	var gotAt time.Duration
	clk.Go(func() {
		nc, _ := f.Dial("tasd")
		sc := nc.(*SimConn)
		clk.Sleep(time.Millisecond)
		sc.PartitionOutbound(20 * time.Millisecond) // half-open: replies still flow
		nc.Write([]byte("x"))
		buf := make([]byte, 1)
		if _, err := nc.Read(buf); err != nil {
			t.Errorf("Read: %v", err)
		}
		gotAt = clk.VirtualNow()
		nc.Close()
		ln.Close()
	})
	if err := clk.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if gotAt < 21*time.Millisecond {
		t.Fatalf("echo arrived at +%v, before the partition healed", gotAt)
	}
}

// runEchoTraffic drives a fixed workload over a faulty fabric and
// returns the trace hash. Used to prove the seed→schedule contract.
func runEchoTraffic(seed uint64) (uint64, uint64) {
	clk := NewSimClock()
	f := NewFabric(clk, seed)
	f.SetFaults(Faults{
		DelayMin: 100 * time.Microsecond, DelayMax: 3 * time.Millisecond,
		ConnectDelay: 200 * time.Microsecond,
		DropProb:     0.05, DupProb: 0.05, CorruptProb: 0.05, ResetProb: 0.01,
	})
	ln, _ := f.Listen("tasd")
	clk.Go(func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			clk.Go(func() {
				buf := make([]byte, 64)
				for {
					nc.SetReadDeadline(clk.Now().Add(10 * time.Millisecond))
					n, err := nc.Read(buf)
					if err != nil {
						nc.Close()
						return
					}
					nc.Write(buf[:n])
				}
			})
		}
	})
	for i := 0; i < 4; i++ {
		clk.Go(func() {
			nc, err := f.Dial("tasd")
			if err != nil {
				return
			}
			buf := make([]byte, 64)
			for op := 0; op < 20; op++ {
				if _, err := nc.Write([]byte(fmt.Sprintf("client %d op %d", i, op))); err != nil {
					break
				}
				nc.SetReadDeadline(clk.Now().Add(5 * time.Millisecond))
				if _, err := nc.Read(buf); err != nil {
					var ne net.Error
					if !errors.As(err, &ne) || !ne.Timeout() {
						break
					}
				}
				clk.Sleep(time.Duration(i+1) * 100 * time.Microsecond)
			}
			nc.Close()
		})
	}
	clk.AfterFunc(500*time.Millisecond, func() { ln.Close() })
	clk.Wait()
	return clk.TraceHash()
}

func TestFabricReplayDeterminism(t *testing.T) {
	for _, seed := range []uint64{1, 2, 42} {
		h1, n1 := runEchoTraffic(seed)
		h2, n2 := runEchoTraffic(seed)
		if h1 != h2 || n1 != n2 {
			t.Fatalf("seed %d: run1 (%x, %d events) != run2 (%x, %d events)", seed, h1, n1, h2, n2)
		}
	}
	h1, _ := runEchoTraffic(1)
	h3, _ := runEchoTraffic(3)
	if h1 == h3 {
		t.Fatal("different seeds produced identical traces; fault stream looks unseeded")
	}
}

// TestFabricBoundedPipeBackpressure: LimitInbound turns the receiving
// direction into a finite pipe. A writer fills it without blocking,
// parks on the next write, resumes when the reader drains, and — once
// the reader stops draining for good — fails its write at the write
// deadline with a net.Error timeout, in virtual time.
func TestFabricBoundedPipeBackpressure(t *testing.T) {
	clk := NewSimClock()
	f := NewFabric(clk, 11)
	ln, err := f.Listen("tasd")
	if err != nil {
		t.Fatal(err)
	}

	var (
		firstN    int
		firstErr  error
		secondDur time.Duration
		secondErr error
		thirdDur  time.Duration
		thirdErr  error
	)
	// Server: write 8B (fills the pipe), then 6B (parks until the
	// client drains), then 6B against a client that never reads again,
	// under a 5ms write deadline.
	clk.Go(func() {
		sc, err := ln.Accept()
		if err != nil {
			t.Errorf("Accept: %v", err)
			return
		}
		firstN, firstErr = sc.Write(bytes.Repeat([]byte{'a'}, 8))
		t0 := clk.Now()
		_, secondErr = sc.Write(bytes.Repeat([]byte{'b'}, 6))
		secondDur = clk.Since(t0)
		sc.SetWriteDeadline(clk.Now().Add(5 * time.Millisecond))
		t0 = clk.Now()
		_, thirdErr = sc.Write(bytes.Repeat([]byte{'c'}, 6))
		thirdDur = clk.Since(t0)
		sc.Close()
	})
	clk.Go(func() {
		nc, err := f.Dial("tasd")
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		sim := nc.(*SimConn)
		sim.LimitInbound(8)
		// Drain 4 bytes at +10ms, then go silent forever.
		clk.Sleep(10 * time.Millisecond)
		buf := make([]byte, 4)
		if _, err := io.ReadFull(nc, buf); err != nil {
			t.Errorf("Read: %v", err)
		}
		clk.Sleep(30 * time.Millisecond)
		nc.Close()
	})
	if err := clk.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}

	if firstN != 8 || firstErr != nil {
		t.Fatalf("fill write = (%d, %v), want (8, nil)", firstN, firstErr)
	}
	if secondErr != nil {
		t.Fatalf("drained write failed: %v", secondErr)
	}
	if secondDur < 9*time.Millisecond {
		t.Fatalf("second write returned after %v; it should have parked until the +10ms drain", secondDur)
	}
	var nerr net.Error
	if !errors.As(thirdErr, &nerr) || !nerr.Timeout() {
		t.Fatalf("write against a dead reader = %v, want a net.Error timeout", thirdErr)
	}
	if !errors.Is(thirdErr, os.ErrDeadlineExceeded) {
		t.Fatalf("write timeout %v does not match os.ErrDeadlineExceeded", thirdErr)
	}
	if thirdDur != 5*time.Millisecond {
		t.Fatalf("write deadline fired after %v, want exactly 5ms of virtual time", thirdDur)
	}
}

// TestRealAwait: on the wall clock Await is a plain select — a closed
// channel answers nil, a cancelled context its error.
func TestRealAwait(t *testing.T) {
	done := make(chan struct{})
	close(done)
	if err := Real.Await(context.Background(), done); err != nil {
		t.Fatalf("Await on a closed channel = %v, want nil", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Real.Await(ctx, make(chan struct{})); !errors.Is(err, context.Canceled) {
		t.Fatalf("Await on a cancelled context = %v, want context.Canceled", err)
	}
}

// TestSimClockAwaitPolls: a simulated Await notices another actor's
// close at its next poll, so it returns on a whole number of
// awaitPoll intervals — the first poll at or after the close.
func TestSimClockAwaitPolls(t *testing.T) {
	clk := NewSimClock()
	done := make(chan struct{})
	var err error
	var returned time.Duration
	clk.Go(func() {
		err = clk.Await(context.Background(), done)
		returned = clk.VirtualNow()
	})
	clk.Go(func() {
		clk.Sleep(1200 * time.Microsecond)
		close(done)
	})
	if werr := clk.Wait(); werr != nil {
		t.Fatalf("Wait: %v", werr)
	}
	if err != nil {
		t.Fatalf("Await = %v, want nil", err)
	}
	if want := 3 * awaitPoll; returned != want {
		t.Fatalf("Await returned at +%v, want +%v (the first poll after the +1.2ms close)", returned, want)
	}
}

// TestSimClockAwaitChecksDoneThenCtx: with ctx already cancelled,
// Await returns at once — a closed channel still wins, an open one
// yields context.Canceled — and never sleeps: the only event of the
// run is the actor's spawn.
func TestSimClockAwaitChecksDoneThenCtx(t *testing.T) {
	clk := NewSimClock()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	closed := make(chan struct{})
	close(closed)
	var onClosed, onOpen error
	clk.Go(func() {
		onClosed = clk.Await(ctx, closed)
		onOpen = clk.Await(ctx, make(chan struct{}))
	})
	if err := clk.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if onClosed != nil {
		t.Errorf("Await(cancelled, closed) = %v, want nil: done is checked before ctx", onClosed)
	}
	if !errors.Is(onOpen, context.Canceled) {
		t.Errorf("Await(cancelled, open) = %v, want context.Canceled", onOpen)
	}
	if _, events := clk.TraceHash(); events != 1 || clk.VirtualNow() != 0 {
		t.Errorf("Await slept: %d events, virtual time +%v; want the spawn only at +0s", events, clk.VirtualNow())
	}
}

// TestSimClockIdle: one Idle parks the actor for exactly one idlePoll
// of virtual time.
func TestSimClockIdle(t *testing.T) {
	clk := NewSimClock()
	w := NewWait()
	clk.Go(func() { clk.Idle(&w) })
	if err := clk.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if got := clk.VirtualNow(); got != idlePoll {
		t.Fatalf("VirtualNow after Idle = %v, want %v", got, idlePoll)
	}
}
