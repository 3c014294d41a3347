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
