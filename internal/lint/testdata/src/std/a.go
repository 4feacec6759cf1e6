// Package fixture exercises the stdlib-only subset of the standard
// nilness pass.
package fixture

type node struct {
	next *node
	val  int
}

func nilnessHit(n *node) int {
	if n == nil {
		return n.val // want "field access on n, proven nil"
	}
	return n.val
}

func nilnessReassigned(n *node) int {
	if n == nil {
		n = &node{}
		return n.val
	}
	return n.val
}
