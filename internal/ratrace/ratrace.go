// Package ratrace implements the RatRace adaptive leader election of
// Alistarh, Attiya, Gilbert, Giurgiu and Guerraoui [3] and the paper's
// space-efficient modification (Section 3).
//
// Both variants elect a leader with O(log k) expected steps (also with
// high probability) against the adaptive adversary, where k is the
// contention. They differ in space:
//
//   - Original: a primary tree of randomized splitters of height 3·log n
//     (Θ(n³) registers) plus an n×n backup grid of deterministic splitters
//     (Θ(n²) registers).
//   - SpaceEfficient: a primary tree of height log n, n/log n elimination
//     paths of length 4·log n fed by the tree's leaves, and one backup
//     elimination path of length n — Θ(n) registers in total.
//
// A process descends the tree trying to win a randomized splitter; when it
// stops it climbs back to the root winning a 3-process leader election at
// every node, then meets the backup structure's winner at a final
// 2-process election. Processes that fall off the tree enter the backup
// structure (grid or elimination paths), which is collision-free by the
// deterministic splitter properties (Claim 3.1).
package ratrace

import (
	"sync/atomic"

	"repro/internal/shm"
	"repro/internal/splitter"
	"repro/internal/twoproc"
)

// Progress records how far a process got inside RatRace. The Section 4
// combiner needs to know whether a process has already won some splitter
// (Rule 3) when it loses in the interleaved algorithm A.
type Progress struct {
	// WonSplitter is set when the process receives Stop from any
	// deterministic or randomized splitter of this RatRace instance.
	WonSplitter bool
}

// --- Primary tree ----------------------------------------------------------

type treeNode struct {
	rs splitter.RSplitter
	le twoproc.LE3
}

// tree is a complete binary tree of randomized splitters and 3-process
// leader elections, heap-indexed from 1. Its nodes live in one slice.
type tree struct {
	height int
	nodes  []treeNode // index 0 unused
}

func newTree(s shm.Space, height int) tree {
	count := 1 << uint(height+1) // nodes 1 .. 2^(h+1)-1
	t := tree{height: height, nodes: make([]treeNode, count)}
	for v := 1; v < count; v++ {
		t.nodes[v].rs = splitter.MakeRandomized(s)
		t.nodes[v].le = twoproc.Make3(s)
	}
	return t
}

func (t *tree) leafStart() int { return 1 << uint(t.height) }
func (t *tree) leafCount() int { return 1 << uint(t.height) }

// descend walks from the root taking randomized splitters until the
// process stops (returns its node, fellLeaf −1) or falls off a leaf
// (returns stop 0 and the 0-based leaf index).
func (t *tree) descend(h shm.Handle, prog *Progress) (stop, fellLeaf int) {
	v := 1
	for {
		switch t.nodes[v].rs.Split(h) {
		case splitter.Stop:
			if prog != nil {
				prog.WonSplitter = true
			}
			return v, -1
		case splitter.Left:
			v = 2 * v
		case splitter.Right:
			v = 2*v + 1
		}
		if v >= len(t.nodes) {
			// Fell off below a leaf: the leaf is v/2.
			return 0, v/2 - t.leafStart()
		}
	}
}

// climb ascends from node v to the root, entering each node's 3-process
// election with the given role at v and the child-derived role above, and
// reports whether the process won the root election.
func (t *tree) climb(h shm.Handle, v int, role twoproc.Role) bool {
	for v >= 1 {
		if !t.nodes[v].le.Elect(h, role) {
			return false
		}
		if v%2 == 0 {
			role = twoproc.FromLeft
		} else {
			role = twoproc.FromRight
		}
		v /= 2
	}
	return true
}

// --- Elimination path (Section 3.2) ----------------------------------------

// PathOutcome is the result of entering an elimination path.
type PathOutcome uint8

// Elimination path outcomes.
const (
	// PathLost: the process received Left from a splitter or lost a
	// 2-process election on the way back.
	PathLost PathOutcome = iota + 1
	// PathWon: the process won the election at node 1 of the path.
	PathWon
	// PathFellOff: the process moved Right past the last node. By
	// Claim 3.1 this cannot happen when at most len(path) processes
	// enter.
	PathFellOff
)

// EliminationPath is the Θ(length)-register structure of Section 3.2: a
// line of deterministic splitters with a 2-process leader election per
// node. A process moves right until it wins a splitter (or loses), then
// moves left winning 2-process elections back to node 1.
type EliminationPath struct {
	sps []splitter.Splitter
	les []twoproc.LE
}

// NewEliminationPath allocates a path with the given number of nodes.
func NewEliminationPath(s shm.Space, length int) *EliminationPath {
	return &makePaths(s, []int{max(length, 1)})[0]
}

// makePaths builds one elimination path per entry of lengths (each
// positive), in order. Every path's splitters are carved from one slice
// and its elections from another; registers are allocated node by node,
// path by path, as separate NewEliminationPath calls would.
func makePaths(s shm.Space, lengths []int) []EliminationPath {
	total := 0
	for _, l := range lengths {
		total += l
	}
	sps := make([]splitter.Splitter, total)
	les := make([]twoproc.LE, total)
	for i := range sps {
		sps[i] = splitter.Make(s)
		les[i] = twoproc.Make(s)
	}
	paths := make([]EliminationPath, len(lengths))
	for i, l := range lengths {
		paths[i] = EliminationPath{sps: sps[:l:l], les: les[:l:l]}
		sps, les = sps[l:], les[l:]
	}
	return paths
}

// Len returns the number of nodes.
func (p *EliminationPath) Len() int { return len(p.sps) }

// Enter runs the process through the path.
func (p *EliminationPath) Enter(h shm.Handle, prog *Progress) PathOutcome {
	for i := 0; i < len(p.sps); i++ {
		switch p.sps[i].Split(h) {
		case splitter.Left:
			return PathLost
		case splitter.Stop:
			if prog != nil {
				prog.WonSplitter = true
			}
			// Move left: win LE_i as the node-i splitter winner
			// (slot 0), then LE_{i-1}.. as the riser (slot 1).
			if !p.les[i].Elect(h, 0) {
				return PathLost
			}
			for j := i - 1; j >= 0; j-- {
				if !p.les[j].Elect(h, 1) {
					return PathLost
				}
			}
			return PathWon
		case splitter.Right:
			// next node
		}
	}
	return PathFellOff
}

// --- Backup grid (original RatRace) ----------------------------------------

type gridNode struct {
	sp splitter.Splitter
	le twoproc.LE3
}

// grid is the original RatRace n×n backup: deterministic splitters with a
// 3-process election per node; children of (i,j) are (i+1,j) ("down",
// reached on Left) and (i,j+1) ("right", reached on Right).
type grid struct {
	n     int
	nodes []gridNode // (i,j) at i*n+j
}

func newGrid(s shm.Space, n int) grid {
	g := grid{n: n, nodes: make([]gridNode, n*n)}
	for i := range g.nodes {
		g.nodes[i].sp = splitter.Make(s)
		g.nodes[i].le = twoproc.Make3(s)
	}
	return g
}

// enter runs the process through the grid from (0,0) and reports whether
// it won the election at (0,0). fellOff reports the (impossible for ≤ n
// entrants) event of leaving the grid.
func (g *grid) enter(h shm.Handle, prog *Progress) (won, fellOff bool) {
	var moves []byte // 'd' or 'r', the path from (0,0)
	i, j := 0, 0
	for {
		switch g.nodes[i*g.n+j].sp.Split(h) {
		case splitter.Stop:
			if prog != nil {
				prog.WonSplitter = true
			}
			// Walk back along the recorded path.
			role := twoproc.Here
			for {
				if !g.nodes[i*g.n+j].le.Elect(h, role) {
					return false, false
				}
				if len(moves) == 0 {
					return true, false
				}
				m := moves[len(moves)-1]
				moves = moves[:len(moves)-1]
				if m == 'd' {
					i--
					role = twoproc.FromLeft
				} else {
					j--
					role = twoproc.FromRight
				}
			}
		case splitter.Left:
			// Grid routing: Left is the (i+1, j) child.
			i++
			moves = append(moves, 'd')
		case splitter.Right:
			// Right is the (i, j+1) child.
			j++
			moves = append(moves, 'r')
		}
		if i >= g.n || j >= g.n {
			return false, true
		}
	}
}

// --- Original RatRace -------------------------------------------------------

// Original is the RatRace of [3]: primary tree of height 3·⌈log n⌉ and an
// n×n backup grid. Θ(n³) registers — construct it only for small n; the
// paper's Section 3 variant (SpaceEfficient) is the practical one.
type Original struct {
	tree tree
	grid grid
	top  twoproc.LE

	gridFellOff atomic.Bool
}

// NewOriginal builds the original RatRace for up to n processes.
func NewOriginal(s shm.Space, n int) *Original {
	if n < 1 {
		n = 1
	}
	return &Original{
		tree: newTree(s, 3*ceilLog2(n)),
		grid: newGrid(s, n),
		top:  twoproc.Make(s),
	}
}

// Elect runs the election; true iff the caller wins.
func (r *Original) Elect(h shm.Handle) bool { return r.ElectWithProgress(h, nil) }

// ElectWithProgress is Elect with combiner instrumentation.
func (r *Original) ElectWithProgress(h shm.Handle, prog *Progress) bool {
	stop, _ := r.tree.descend(h, prog)
	if stop > 0 {
		return r.tree.climb(h, stop, twoproc.Here) && r.top.Elect(h, 0)
	}
	won, fell := r.grid.enter(h, prog)
	if fell {
		r.gridFellOff.Store(true)
		return false
	}
	return won && r.top.Elect(h, 1)
}

// --- Space-efficient RatRace (Section 3.2) ----------------------------------

// SpaceEfficient is the paper's Θ(n)-register modification: primary tree
// of height ⌈log n⌉, ⌈leaves/⌈log n⌉⌉ elimination paths of length
// 4·⌈log n⌉ fed by leaf blocks, and one backup elimination path of length
// n. Winners of path i re-enter the tree at leaf i; processes falling off
// a path enter the backup path.
type SpaceEfficient struct {
	tree      tree
	paths     []EliminationPath
	blockSize int
	backup    *EliminationPath
	top       twoproc.LE

	backupFellOff atomic.Bool
}

// NewSpaceEfficient builds the Section 3 leader election for up to n
// processes.
func NewSpaceEfficient(s shm.Space, n int) *SpaceEfficient {
	if n < 1 {
		n = 1
	}
	height := ceilLog2(n)
	t := newTree(s, height)
	blockSize := height
	if blockSize < 1 {
		blockSize = 1
	}
	numPaths := (t.leafCount() + blockSize - 1) / blockSize
	pathLen := 4 * height
	if pathLen < 4 {
		pathLen = 4
	}
	// The fed paths, then the backup path, on shared node slices.
	lengths := make([]int, numPaths+1)
	for i := range numPaths {
		lengths[i] = pathLen
	}
	lengths[numPaths] = n
	paths := makePaths(s, lengths)
	return &SpaceEfficient{
		tree:      t,
		paths:     paths[:numPaths],
		blockSize: blockSize,
		backup:    &paths[numPaths],
		top:       twoproc.Make(s),
	}
}

// Elect runs the election; true iff the caller wins.
func (r *SpaceEfficient) Elect(h shm.Handle) bool { return r.ElectWithProgress(h, nil) }

// ElectWithProgress is Elect with combiner instrumentation.
func (r *SpaceEfficient) ElectWithProgress(h shm.Handle, prog *Progress) bool {
	stop, leaf := r.tree.descend(h, prog)
	if stop > 0 {
		return r.tree.climb(h, stop, twoproc.Here) && r.top.Elect(h, 0)
	}
	pathIdx := leaf / r.blockSize
	if pathIdx >= len(r.paths) {
		pathIdx = len(r.paths) - 1
	}
	switch r.paths[pathIdx].Enter(h, prog) {
	case PathLost:
		return false
	case PathWon:
		// Re-enter the tree at leaf pathIdx and climb from there as
		// the riser into that leaf's election.
		v := r.tree.leafStart() + pathIdx
		return r.tree.climb(h, v, twoproc.FromLeft) && r.top.Elect(h, 0)
	default: // PathFellOff
		switch r.backup.Enter(h, prog) {
		case PathWon:
			return r.top.Elect(h, 1)
		case PathFellOff:
			r.backupFellOff.Store(true)
			return false
		default:
			return false
		}
	}
}

// BackupFellOff reports whether any process fell off the length-n backup
// path — impossible for ≤ n participants by Claim 3.1; asserted by tests.
func (r *SpaceEfficient) BackupFellOff() bool { return r.backupFellOff.Load() }

// ceilLog2 returns ⌈log₂ n⌉ for n ≥ 1.
func ceilLog2(n int) int {
	l, p := 0, 1
	for p < n {
		p *= 2
		l++
	}
	return l
}
