// Package ckptpkg is snapshotcomplete test input: structs with a
// Snapshot/Restore pair whose simulation-time mutations must all be
// serialized, rebuilt, or annotated.
package ckptpkg

// Writer/Reader stand in for the fgss codec.
type Writer struct{ buf []byte }

func (w *Writer) I64(v int64) { w.buf = append(w.buf, byte(v)) }

type Reader struct{ off int }

func (r *Reader) I64() int64 { r.off++; return 0 }

// Engine exercises the main cases: a field serialized directly, one
// serialized through a helper, a mutated field the pair forgets, a
// derived field rebuilt on restore, and an annotated survivor.
type Engine struct {
	cycles  int64
	hits    int64
	scratch []int64 // want `field scratch of Engine is mutated during simulation .* but never touched by its Snapshot/Restore pair`
	index   map[int64]int
	pool    []int64 //fglint:preserved entries are fully overwritten before reuse, so stale contents cannot desynchronize a restore
	cfg     int64   // read-only after construction: nothing to checkpoint
}

func NewEngine(cfg int64) *Engine {
	e := &Engine{index: map[int64]int{}}
	e.cfg = cfg // constructor writes are not simulation-time mutation
	return e
}

func (e *Engine) Tick() {
	e.cycles++
	e.record()
	e.scratch = append(e.scratch, e.cycles)
	e.pool = e.pool[:0]
	e.index[e.cycles] = int(e.hits)
}

func (e *Engine) record() { e.hits++ }

func (e *Engine) Snapshot(w *Writer) {
	w.I64(e.cycles)
	e.snapHits(w)
}

// snapHits is reachable from Snapshot, so hits counts as handled.
func (e *Engine) snapHits(w *Writer) { w.I64(e.hits) }

func (e *Engine) Restore(r *Reader) {
	e.cycles = r.I64()
	e.hits = r.I64()
	// The index is derived state: mentioning it here (the rebuild)
	// marks it handled.
	clear(e.index)
}

// Bank restores by whole-struct assignment: every field is handled.
type Bank struct {
	open bool
	row  uint64
}

func (b *Bank) Touch(r uint64)     { b.open, b.row = true, r }
func (b *Bank) Snapshot(w *Writer) { w.I64(int64(b.row)) }
func (b *Bank) Restore(r *Reader)  { *b = Bank{row: uint64(r.I64())} }

// Meter's annotation is missing its mandatory reason.
type Meter struct {
	//fglint:preserved
	n int // want `annotation needs a reason`
}

func (m *Meter) Bump()              { m.n++ }
func (m *Meter) Snapshot(w *Writer) {}
func (m *Meter) Restore(r *Reader)  {}

// Lower spells the pair snapshot/restore, which is accepted too: its
// forgotten field is reported like Engine's.
type Lower struct {
	n    int64
	miss int64 // want `field miss of Lower is mutated during simulation`
}

func (t *Lower) Step()              { t.n++; t.miss++ }
func (t *Lower) snapshot(w *Writer) { w.I64(t.n) }
func (t *Lower) restore(r *Reader)  { t.n = r.I64() }

// HalfPair declares only Snapshot — not a checkpointable type, so its
// unserialized mutation is not this check's concern.
type HalfPair struct{ n int }

func (h *HalfPair) Bump()              { h.n++ }
func (h *HalfPair) Snapshot(w *Writer) {}

// Outer mutates a field through a pointer-receiver method call; that
// counts as a write even though no assignment names the field.
type Outer struct {
	inner *Inner // want `field inner of Outer is mutated during simulation`
	gauge *Inner //fglint:preserved the gauge is serialized by its owning layer, not by Outer
}

type Inner struct{ n int }

func (i *Inner) Poke() { i.n++ }

func (o *Outer) Step() {
	o.inner.Poke()
	o.gauge.Poke()
}

func (o *Outer) Snapshot(w *Writer) {}
func (o *Outer) Restore(r *Reader)  {}
