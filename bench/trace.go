package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/rng"
)

// reservoir keeps a uniform sample of at most cap(buf) values from an
// unbounded stream (Vitter's algorithm R), so a long run's percentiles
// come from bounded, preallocated memory.
type reservoir struct {
	buf  []int64
	seen int64
	rng  rng.SplitMix64
}

func newReservoir(capacity int, seed uint64) *reservoir {
	return &reservoir{buf: make([]int64, 0, capacity), rng: rng.New(seed)}
}

func (r *reservoir) add(v int64) {
	r.seen++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v)
		return
	}
	if j := r.rng.Intn(int(r.seen)); j < len(r.buf) {
		r.buf[j] = v
	}
}

// quantiles returns the nearest-rank quantiles qs of the samples of rs,
// pooled, and the number of values the samples stand for.
func quantiles(rs []*reservoir, qs ...float64) ([]float64, int64) {
	var all []int64
	var seen int64
	for _, r := range rs {
		all = append(all, r.buf...)
		seen += r.seen
	}
	out := make([]float64, len(qs))
	if len(all) == 0 {
		return out, 0
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	for i, q := range qs {
		k := int(q*float64(len(all))+0.999999999) - 1
		k = max(0, min(k, len(all)-1))
		out[i] = float64(all[k])
	}
	return out, seen
}

// span is one call the benchmark made into a layer. Times are
// nanoseconds since the tracer's epoch; parent indexes the tracer's
// buffer (-1 for an op's root span).
type span struct {
	name   uint8
	parent int32
	op     uint32
	start  int64
	end    int64
}

// tracer records spans into a preallocated ring and, as each op ends,
// folds the self time of every span of the op into per-name reservoirs.
// A layer's self time is its span's duration minus the part of that
// interval its child spans cover. One tracer belongs to one goroutine
// unless it is built shared, in which case calls are serialized.
type tracer struct {
	names   []string
	ring    []span
	next    int // spans ever recorded; ring slot is next % len(ring)
	ops     uint32
	dropped int
	epoch   time.Time
	self    []*reservoir // indexed by span name
	kids    [][2]int64   // finishOp's scratch
	mu      *sync.Mutex
}

const ringSpans = 1 << 14

func newTracer(names []string, epoch time.Time, seed uint64, shared bool) *tracer {
	t := &tracer{names: names, ring: make([]span, ringSpans), epoch: epoch}
	for i := range names {
		t.self = append(t.self, newReservoir(1<<15, seed+uint64(i)))
	}
	if shared {
		t.mu = new(sync.Mutex)
	}
	return t
}

// begin opens a span and returns its handle for end and for children.
func (t *tracer) begin(name int, parent int) int {
	now := time.Since(t.epoch).Nanoseconds()
	if t.mu != nil {
		t.mu.Lock()
		defer t.mu.Unlock()
	}
	if parent < 0 {
		t.ops++
	}
	i := t.next
	t.ring[i%len(t.ring)] = span{name: uint8(name), parent: int32(parent), op: t.ops, start: now, end: now}
	t.next++
	return i
}

// add records a finished child span whose times were taken by the caller.
func (t *tracer) add(name, parent int, start, end time.Time) {
	if t.mu != nil {
		t.mu.Lock()
		defer t.mu.Unlock()
	}
	t.ring[t.next%len(t.ring)] = span{name: uint8(name), parent: int32(parent), op: t.ops,
		start: start.Sub(t.epoch).Nanoseconds(), end: end.Sub(t.epoch).Nanoseconds()}
	t.next++
}

// end closes span i; closing a root span ends its op.
func (t *tracer) end(i int) {
	now := time.Since(t.epoch).Nanoseconds()
	if t.mu != nil {
		t.mu.Lock()
		defer t.mu.Unlock()
	}
	s := &t.ring[i%len(t.ring)]
	s.end = now
	if s.parent < 0 {
		t.finishOp(i)
	}
}

// finishOp computes self times for the op rooted at span root. An op
// with more spans than the ring holds is counted as dropped.
func (t *tracer) finishOp(root int) {
	if t.next-root > len(t.ring) {
		t.dropped++
		return
	}
	for i := root; i < t.next; i++ {
		s := t.ring[i%len(t.ring)]
		kids := t.kids[:0]
		for j := i + 1; j < t.next; j++ {
			c := t.ring[j%len(t.ring)]
			if int(c.parent) == i {
				kids = append(kids, [2]int64{max(c.start, s.start), min(c.end, s.end)})
			}
		}
		t.kids = kids
		t.self[s.name].add(s.end - s.start - covered(kids))
	}
}

// covered returns the total length of the union of intervals, sorting
// them in place (insertion sort: an op has few children, and the traced
// loop must not allocate).
func covered(iv [][2]int64) int64 {
	for i := 1; i < len(iv); i++ {
		for j := i; j > 0 && iv[j][0] < iv[j-1][0]; j-- {
			iv[j], iv[j-1] = iv[j-1], iv[j]
		}
	}
	var total, hi int64
	hi = -1 << 62
	for _, x := range iv {
		if x[1] <= x[0] {
			continue
		}
		lo := max(x[0], hi)
		if x[1] > lo {
			total += x[1] - lo
		}
		hi = max(hi, x[1])
	}
	return total
}

// selfTimes reports the median self time of each span name over the
// tracers, in unit ("ns" or "us"), under keys "span.<name>_<unit>".
func selfTimes(ts []*tracer, unit string, rec *Record) {
	if len(ts) == 0 {
		return
	}
	div := map[string]float64{"ns": 1, "us": 1000}[unit]
	for n, name := range ts[0].names {
		var rs []*reservoir
		for _, t := range ts {
			rs = append(rs, t.self[n])
		}
		if q, seen := quantiles(rs, 0.5); seen > 0 {
			rec.set("span."+name+"_"+unit, q[0]/div, unit)
		}
	}
}

// dumpSpans writes the spans still in the tracers' rings to path as JSON
// lines, one span per line, for reading after the run.
func dumpSpans(path string, ts []*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		Tracer int    `json:"tracer"`
		Name   string `json:"name"`
		Op     uint32 `json:"op"`
		Parent int32  `json:"parent"`
		Index  int    `json:"index"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
	}
	for ti, t := range ts {
		for i := max(0, t.next-len(t.ring)); i < t.next; i++ {
			s := t.ring[i%len(t.ring)]
			if err := enc.Encode(line{ti, t.names[s.name], s.op, s.parent, i, s.start, s.end}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}
