// Package agtv implements the tournament-tree leader election of Afek,
// Gafni, Tromp and Vitányi [1] — the 1992 baseline the paper's
// introduction starts from: expected O(log n) steps against the adaptive
// adversary from O(n) registers.
//
// The structure is a complete binary tree with one two-process
// leader-election object per internal node. Process p starts at the leaf
// with index p and plays the election at each node on its root path, as
// the left or right contender according to the child it arrives from.
// Exactly one process survives every round; the winner at the root wins.
// The depth is ⌈log₂ n⌉ and each match costs O(1) expected steps, giving
// O(log n) in expectation (the bound is on n, not the contention k: the
// tournament is not adaptive, which is what RatRace later improved).
package agtv

import (
	"repro/internal/shm"
	"repro/internal/twoproc"
)

// Tournament is the AGTV leader election for up to n processes.
type Tournament struct {
	leaves int
	// matches holds the internal nodes of a complete binary tree,
	// heap-indexed from 1; node v's children are 2v and 2v+1. Matches
	// are two-process elections: slot 0 for the contender rising from
	// the left child, slot 1 from the right child.
	matches []twoproc.LE
}

// New builds the tournament for up to n processes (n ≥ 1). It allocates
// 2·(leaves−1) registers where leaves is n rounded up to a power of two.
func New(s shm.Space, n int) *Tournament {
	if n < 1 {
		n = 1
	}
	leaves := 1
	for leaves < n {
		leaves *= 2
	}
	t := &Tournament{leaves: leaves, matches: make([]twoproc.LE, leaves)}
	for v := 1; v < leaves; v++ {
		t.matches[v] = twoproc.Make(s)
	}
	return t
}

// Elect runs the election for the caller; true iff it wins. The caller's
// ID must be in [0, n).
func (t *Tournament) Elect(h shm.Handle) bool {
	v := t.leaves + h.ID() // leaf position
	for v > 1 {
		slot := v % 2 // left child rises as slot 0
		v /= 2
		if !t.matches[v].Elect(h, slot) {
			return false
		}
	}
	return true
}

// Rounds returns the tournament depth ⌈log₂ n⌉.
func (t *Tournament) Rounds() int {
	d, v := 0, 1
	for v < t.leaves {
		v *= 2
		d++
	}
	return d
}
