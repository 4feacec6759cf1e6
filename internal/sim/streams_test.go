package sim

import "testing"

// Regression for the review finding: per-process coin streams must not be
// shifted copies of each other.
func TestProcStreamsDecorrelated(t *testing.T) {
	draw := func(pid, count int) []uint64 {
		sys := NewSystem(Config{N: 8, Seed: 42})
		h := &sys.procs[pid].h // the handle bind gave pid
		out := make([]uint64, count)
		for i := range out {
			out[i] = uint64(h.Intn(1 << 62)) // the stream's top 62 bits
		}
		return out
	}
	p0 := draw(0, 16)
	for pid := 1; pid < 4; pid++ {
		pn := draw(pid, 8)
		for shift := 0; shift <= 8; shift++ {
			match := 0
			for i := 0; i < 8; i++ {
				if pn[i] == p0[i+shift] {
					match++
				}
			}
			if match > 1 {
				t.Errorf("process %d stream matches process 0 shifted by %d (%d/8 draws equal)", pid, shift, match)
			}
		}
	}
}
