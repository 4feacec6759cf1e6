// Package splitter implements the deterministic splitter of Moir and
// Anderson [12] and the randomized splitter of Attiya et al. [7], the two
// O(1)-register contention-detection objects the paper uses as building
// blocks (Section 1, Preliminaries).
//
// A splitter's split() returns a value in {Stop, Left, Right} such that
//
//   - at most one caller receives Stop ("wins the splitter"),
//   - a caller running alone receives Stop, and
//   - for the deterministic splitter, if k processes call split() then at
//     most k−1 receive Left and at most k−1 receive Right.
//
// The randomized splitter keeps the first two properties but replaces the
// deterministic Left/Right routing by an independent fair coin, which is
// what RatRace's primary tree needs (Section 3.1).
package splitter

import "repro/internal/shm"

// Outcome is the result of a split() call.
type Outcome uint8

// Split outcomes. Stop means the caller won the splitter.
const (
	Stop Outcome = iota + 1
	Left
	Right
)

func (o Outcome) String() string {
	switch o {
	case Stop:
		return "stop"
	case Left:
		return "left"
	case Right:
		return "right"
	default:
		return "invalid"
	}
}

// noProcess marks the X register as unwritten. Process ids are ≥ 0.
const noProcess = shm.Value(-1)

// Splitter is the deterministic Moir–Anderson splitter. It uses two
// registers.
type Splitter struct {
	x shm.Register // last process to enter the doorway
	y shm.Register // doorway closed flag
}

// New allocates a deterministic splitter on s.
func New(s shm.Space) *Splitter {
	return &Splitter{x: s.NewRegister(noProcess), y: s.NewRegister(0)}
}

// Split performs the split() operation for the process behind h.
// It takes at most 4 steps. It is the front of tas.FastPath's doorway,
// which every lock acquisition runs.
func (sp *Splitter) Split(h shm.Handle) Outcome {
	h.Write(sp.x, shm.Value(h.ID()))
	if h.Read(sp.y) != 0 {
		return Left
	}
	h.Write(sp.y, 1)
	if h.Read(sp.x) == shm.Value(h.ID()) {
		return Stop
	}
	return Right
}

// RSplitter is the randomized splitter: at most one split() call returns
// Stop, a solo call returns Stop, and a non-Stop call returns Left or Right
// independently with probability 1/2 each.
type RSplitter struct {
	x shm.Register
	y shm.Register
}

// NewRandomized allocates a randomized splitter on s.
func NewRandomized(s shm.Space) *RSplitter {
	return &RSplitter{x: s.NewRegister(noProcess), y: s.NewRegister(0)}
}

// Split performs the randomized split() operation. It takes at most 4
// steps plus one local coin flip on the non-Stop paths.
func (sp *RSplitter) Split(h shm.Handle) Outcome {
	h.Write(sp.x, shm.Value(h.ID()))
	if h.Read(sp.y) != 0 {
		return randDirection(h)
	}
	h.Write(sp.y, 1)
	if h.Read(sp.x) == shm.Value(h.ID()) {
		return Stop
	}
	return randDirection(h)
}

func randDirection(h shm.Handle) Outcome {
	if h.Coin(0.5) {
		return Left
	}
	return Right
}
