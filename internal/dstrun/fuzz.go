package dstrun

import (
	"encoding/binary"
	"time"

	"repro/internal/rng"
	"repro/internal/wire"
)

// fuzzActor throws bursts of hostile frames at the server: valid ops
// with arbitrary arguments, truncated and oversized frames, corrupt
// trailers, HELLO version mixes and plain garbage. The server must
// answer or hang up — never crash, never violate a lock invariant, and
// never wedge a process slot (the coordinator's drain at the end of the
// run proves the slots all came back).
func (r *run) fuzzActor(idx int) {
	g := rng.New(r.cfg.Seed ^ (0xd6e8feb86659fd93 * uint64(idx+1)))
	bursts := r.cfg.Ops/2 + 8
	for b := 0; b < bursts; b++ {
		nc, err := r.fab.Dial("tasd")
		if err != nil {
			return // listener gone: the run is draining
		}
		var buf []byte
		frames := 1 + g.Intn(5)
		terminal := false
		for j := 0; j < frames && !terminal; j++ {
			buf, terminal = appendFuzzFrame(buf, &g)
			r.mon.inc(&r.mon.FuzzFrames)
		}
		if _, err := nc.Write(buf); err == nil {
			drain(nc, r.clk, 2*time.Millisecond)
		}
		nc.Close()
		r.clk.Sleep(time.Duration(100 + g.Intn(int(sweep))))
	}
}

// fuzzNames mixes plausible names (aliasing real traffic is fine — the
// ops are valid protocol) with hostile ones.
var fuzzNames = []string{"lock0", "f", "fuzz-lock", "", "group0", "x\x00y"}

// rawFrame hand-builds a request frame: len u32 | op u8 | id u32 |
// nameLen u8 | name | trailer. Used for shapes wire.AppendRequest
// rightly refuses to encode.
func rawFrame(op byte, id uint32, name string, trailer []byte) []byte {
	n := 1 + 4 + 1 + len(name) + len(trailer)
	buf := make([]byte, 4, 4+n)
	binary.BigEndian.PutUint32(buf, uint32(n))
	buf = append(buf, op)
	buf = binary.BigEndian.AppendUint32(buf, id)
	buf = append(buf, byte(len(name)))
	buf = append(buf, name...)
	return append(buf, trailer...)
}

// appendFuzzFrame appends one adversarial frame. terminal means the
// frame (deliberately) breaks stream framing, so the burst must end
// with it — everything after it would be misread as frame tail.
func appendFuzzFrame(buf []byte, g *rng.SplitMix64) (out []byte, terminal bool) {
	id := uint32(g.Next())
	name := fuzzNames[g.Intn(len(fuzzNames))]
	switch g.Intn(9) {
	case 0: // HELLO with version 0, current, future, or absurd
		versions := []uint32{0, 1, 2, 3, 1 << 20}
		b, err := wire.AppendRequest(buf, wire.Request{
			Op: wire.OpHello, ID: id, Version: versions[g.Intn(len(versions))],
		})
		if err != nil {
			return append(buf, rawFrame(wire.OpHello, id, "", []byte{0, 0, 0, 0})...), false
		}
		return b, false

	case 1: // valid op, arbitrary arguments
		req := wire.Request{Op: byte(1 + g.Intn(9)), ID: id, Name: name}
		switch req.Op {
		case wire.OpHello:
			req.Version = 2
		case wire.OpAcquire:
			req.Op = wire.OpTryAcquire // never block the fuzzer itself
			req.TTLMillis = uint32(g.Intn(3))
		case wire.OpTryAcquire:
			req.TTLMillis = uint32(g.Intn(3))
		case wire.OpRelease:
			req.Token = g.Next() >> uint(g.Intn(64))
		case wire.OpElectReset:
			req.Epoch = g.Next() >> uint(g.Intn(64))
		case wire.OpExtend:
			req.Token = 1 + g.Next()>>1
			req.TTLMillis = 1 + uint32(g.Intn(50))
		}
		b, err := wire.AppendRequest(buf, req)
		if err != nil {
			return append(buf, rawFrame(req.Op, id, "f", nil)...), false
		}
		return b, false

	case 2: // truncated frame: the length promises more than arrives
		f := rawFrame(wire.OpAcquire, id, "trunc", []byte{0, 0, 0, 5})
		cut := 1 + g.Intn(len(f)-5)
		return append(buf, f[:len(f)-cut]...), true

	case 3: // oversized length prefix
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(wire.DefaultMaxFrame+1+g.Intn(1<<20)))
		out = append(buf, hdr[:]...)
		return append(out, byte(g.Next()), byte(g.Next())), true

	case 4: // zero / tiny length
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(g.Intn(5)))
		return append(buf, hdr[:]...), true

	case 5: // framed garbage: consistent length, random body
		n := 1 + g.Intn(48)
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(n))
		out = append(buf, hdr[:]...)
		for i := 0; i < n; i++ {
			out = append(out, byte(g.Next()))
		}
		// An unknown opcode gets an error reply and a close; a known one
		// will misparse the body. Either way framing past here is luck.
		return out, true

	case 6: // corrupt trailer: valid header, wrong trailer length
		trailer := make([]byte, g.Intn(24))
		for i := range trailer {
			trailer[i] = byte(g.Next())
		}
		ops := []byte{wire.OpAcquire, wire.OpRelease, wire.OpElectReset, wire.OpExtend}
		return append(buf, rawFrame(ops[g.Intn(len(ops))], id, name, trailer)...), true

	case 7: // EXTEND that violates its own trailer contract (zero token/TTL)
		return append(buf, rawFrame(wire.OpExtend, id, "lock0",
			[]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})...), true

	default: // name-length lies: nameLen points past the frame end
		f := rawFrame(wire.OpElect, id, "ab", nil)
		f[9] = byte(200) // nameLen byte
		return append(buf, f...), true
	}
}
