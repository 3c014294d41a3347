package workload

import "repro/internal/fgss"

// Snapshot appends the generator's mutable state: the PRNG, each sweep
// stream's position, and the current run. Everything else — the spec,
// layout strides, and zipf CDF — is derived from configuration at Open
// time and comes back for free on a fingerprint-matched restore.
func (g *Generator) Snapshot(w *fgss.Writer) {
	w.U64(uint64(g.rng))
	w.Int(len(g.streams))
	for i := range g.streams {
		w.I64(g.streams[i].pos)
	}
	w.Int(g.runLeft)
	w.U64(g.runAddr)
}

// Restore reads back what Snapshot wrote. The receiver must come from
// the same spec (another stream count is a decode error).
func (g *Generator) Restore(r *fgss.Reader) {
	g.rng = splitmix64(r.U64())
	if !r.Expect(len(g.streams), "workload: generator streams") {
		return
	}
	for i := range g.streams {
		g.streams[i].pos = r.I64()
	}
	g.runLeft = r.Int()
	g.runAddr = r.U64()
}

// Snapshot appends the replayer's position in the recorded trace. The
// trace bytes themselves are content-addressed by the config
// fingerprint, so only the cursor travels in the checkpoint.
func (r *Replayer) Snapshot(w *fgss.Writer) {
	w.Int(r.off)
	w.U64(r.prev)
}

// Restore reads back what Snapshot wrote. An offset outside the trace
// is a decode error.
func (r *Replayer) Restore(rd *fgss.Reader) {
	off := rd.Int()
	if rd.Err() == nil && (off < 0 || off > len(r.data)) {
		rd.Reject("workload: replayer offset %d is outside the %d-byte trace", off, len(r.data))
	}
	if rd.Err() != nil {
		return
	}
	r.off = off
	r.prev = rd.U64()
}
