package sim

import "math"

// busWake maintains the controllers' next-work bus cycles in a flat
// tournament tree, so the run loop's per-iteration questions — "when is
// the earliest controller due?" and "which controllers are due now?" —
// cost O(1) and O(answer) instead of a scan over every controller. The
// leaves alias the System's ctrlWake slice (the snapshot format carries
// the leaf values; the internal nodes are derived and rebuilt on
// Restore). Ties break toward the lower controller ID, matching
// the dense loop's ID-order tick sequence.
//
// The tree is sized to the next power of two above the leaf count;
// missing leaves read as +inf. With one controller (the single-channel
// presets) the tree degenerates to the bare leaf and every operation is
// a direct array access.
type busWake struct {
	wake []int64 // leaf values: wake[i] is controller i's next-work probe
	win  []int32 // win[k], k in [1,size): leaf index winning node k's subtree
	size int     // leaf capacity: len(wake) rounded up to a power of two
}

// init points the tree at its leaf slice and derives the internal nodes.
func (w *busWake) init(wake []int64) {
	w.wake = wake
	w.size = 1
	for w.size < len(wake) {
		w.size <<= 1
	}
	if len(wake) <= 1 {
		w.win = nil
		return
	}
	if len(w.win) != w.size {
		w.win = make([]int32, w.size)
	}
	w.rebuild()
}

// val reads leaf i, treating padding leaves beyond the controller count
// as never due.
func (w *busWake) val(i int32) int64 {
	if int(i) < len(w.wake) {
		return w.wake[i]
	}
	return math.MaxInt64
}

// child returns the leaf index representing node c: itself for leaf
// nodes, the recorded winner for internal ones.
func (w *busWake) child(c int) int32 {
	if c >= w.size {
		return int32(c - w.size)
	}
	return w.win[c]
}

// rebuild derives every internal node from the current leaf values.
// Called by init, which Restore uses after rewriting the leaves in bulk.
func (w *busWake) rebuild() {
	for k := w.size - 1; k >= 1; k-- {
		l, r := w.child(2*k), w.child(2*k+1)
		if w.val(r) < w.val(l) {
			w.win[k] = r
		} else {
			w.win[k] = l // ties go left: the lower controller ID
		}
	}
}

// set updates leaf i and replays its root path.
func (w *busWake) set(i int, v int64) {
	w.wake[i] = v
	if w.win == nil {
		return
	}
	for k := (w.size + i) >> 1; k >= 1; k >>= 1 {
		l, r := w.child(2*k), w.child(2*k+1)
		if w.val(r) < w.val(l) {
			w.win[k] = r
		} else {
			w.win[k] = l
		}
	}
}

// min returns the earliest next-work bus cycle across all controllers
// (math.MaxInt64 when there are none).
func (w *busWake) min() int64 {
	if w.win == nil {
		if len(w.wake) == 0 {
			return math.MaxInt64
		}
		return w.wake[0]
	}
	return w.val(w.win[1])
}

// minExcept returns the earliest next-work cycle among every controller
// but i: the bound on how far controller i may run ahead on its own
// before another controller's dense-order tick interleaves. Computed by
// taking the best sibling subtree along i's root path.
func (w *busWake) minExcept(i int) int64 {
	if w.win == nil {
		return math.MaxInt64
	}
	best := int64(math.MaxInt64)
	for c := w.size + i; c > 1; c >>= 1 {
		if v := w.val(w.child(c ^ 1)); v < best {
			best = v
		}
	}
	return best
}

// appendDue appends the index of every controller due at bus cycle `at`
// (wake <= at) to dst, in ascending ID order — the order the dense loop
// ticks controllers in. Subtrees with no due leaf are pruned whole, so
// idle controllers cost nothing.
func (w *busWake) appendDue(at int64, dst []int32) []int32 {
	if len(w.wake) == 0 {
		return dst
	}
	if w.win == nil {
		if w.wake[0] <= at {
			dst = append(dst, 0)
		}
		return dst
	}
	return w.due(1, at, dst)
}

func (w *busWake) due(node int, at int64, dst []int32) []int32 {
	if node >= w.size {
		i := int32(node - w.size)
		if w.val(i) <= at {
			dst = append(dst, i)
		}
		return dst
	}
	if w.val(w.win[node]) > at {
		return dst
	}
	dst = w.due(2*node, at, dst)
	return w.due(2*node+1, at, dst)
}
