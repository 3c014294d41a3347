package stats

import "repro/internal/fgss"

// Snapshot appends the reservoir's mutable state — observation count,
// current sample set, and generator state — to the open section. The
// capacity is configuration and comes back through NewReservoir, not the
// snapshot.
func (r *Reservoir) Snapshot(w *fgss.Writer) {
	w.I64(r.seen)
	w.Int(len(r.items))
	for _, v := range r.items {
		w.I64(v)
	}
	w.U64(r.rng)
}

// Restore reads back what Snapshot wrote. The receiver must be built
// with the same capacity as the snapshotted reservoir; a sample count
// exceeding it is a decode error.
func (r *Reservoir) Restore(rd *fgss.Reader) {
	r.seen = rd.I64()
	n := rd.Len(r.cap, "stats: reservoir samples")
	r.items = r.items[:0]
	for i := 0; i < n && rd.Err() == nil; i++ {
		r.items = append(r.items, rd.I64())
	}
	r.rng = rd.U64()
}
