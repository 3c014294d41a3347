// Package fgss implements the FIGARO snapshot format (FGSS): the
// versioned binary container for sim.System checkpoints.
//
// Layout (all multi-byte integers little-endian):
//
//	offset  size  field
//	0       4     magic "FGSS"
//	4       2     format version (currently 11)
//	6       2     reserved (zero)
//	8       4     sim.EngineVersion of the writing build
//	12      32    config fingerprint (sim.Config.Fingerprint)
//	44      ...   sections
//
// Each section is a u32 tag, a u32 payload length, and the payload —
// a sequence of uvarint/zigzag-varint scalars and length-prefixed byte
// strings appended by one simulation layer. Sections appear in a fixed
// order; the reader demands each tag explicitly, so a reordered or
// missing section is a decode error, not silent misinterpretation.
//
// Refusal rules: NewReader rejects bad magic, an unknown format
// version, a mismatched EngineVersion, and a mismatched config
// fingerprint — a snapshot is only meaningful to the exact timing
// model and configuration that produced it. Close rejects trailing
// bytes so a truncated or padded file cannot pass as valid. A varint
// must use its shortest encoding, so every value has one encoding and a
// snapshot that restores re-encodes to its own bytes.
//
// Both Writer and Reader use a sticky error: layers append or decode
// unconditionally and the first failure is reported at the end (Flush,
// Close, or any intermediate Err call). This keeps per-layer
// Snapshot/Restore code free of error plumbing.
package fgss

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Magic identifies a FIGARO snapshot stream.
const Magic = "FGSS"

// FormatVersion is the current format version. It covers the layers'
// section payloads as well as the container: version 2 encodes a
// cpu.Core window as its ring of in-flight loads, version 3 drops
// the diagnostic counters and registers no result read (stall and
// access counters, queue depth maxima, write-drain cycles, two DRAM
// bank registers), version 4 writes only the valid cache lines and
// FIGCache tag store slots, each with its index, version 5 writes
// only the occupied LISA-VILLA cache rows, each with its index, and
// refuses a varint that is not in its shortest encoding, version 6
// drops the cycle-skipping engine's controller wake registers, so the
// system section holds only the clock, version 7 writes each core's
// trace cursor in the cores section, in place of a traces section of
// its own, version 8 writes the event queue as its lanes alone, each a
// list of (due cycle, token) pairs, with no heap and no sequence
// numbers, version 9 writes each memory controller queue as a count
// and its requests, oldest first, with no per-bank buckets, and a
// request with neither a push stamp nor a core ID, version 10 moves
// the in-DRAM cache hooks' section ahead of the controllers' and
// writes each bank's queued insertions there, in queue order, in place
// of the controllers' relocation plans, the FTS reserved slots and the
// hooks' in-flight lists, and version 11 writes a memory request as
// what the run decided alone: a queued one as its address, arrival
// cycle and the cache hook's decision (a miss, a declined insertion, or
// a hit with its cache row and block), a buffered one as its address
// and kind, with no location, completion token or channel, which
// restore derives from the address.
const FormatVersion = 11

// HeaderSize is the byte length of the fixed header.
const HeaderSize = 44

// maxSnapshotBytes bounds how much NewReader will buffer, so a
// corrupt length field cannot drive an absurd allocation.
const maxSnapshotBytes = 1 << 30

// Writer assembles an FGSS stream section by section.
type Writer struct {
	out io.Writer
	buf []byte // current section payload
	tag uint32
	in  bool // inside a Begin/End pair
	err error
}

// NewWriter writes the FGSS header and returns a writer positioned at
// the first section.
func NewWriter(out io.Writer, engineVersion uint32, fingerprint [32]byte) *Writer {
	w := &Writer{out: out}
	var hdr [HeaderSize]byte
	copy(hdr[0:4], Magic)
	binary.LittleEndian.PutUint16(hdr[4:6], FormatVersion)
	// hdr[6:8] reserved, zero
	binary.LittleEndian.PutUint32(hdr[8:12], engineVersion)
	copy(hdr[12:44], fingerprint[:])
	if _, err := out.Write(hdr[:]); err != nil {
		w.err = fmt.Errorf("fgss: write header: %w", err)
	}
	return w
}

// Begin opens a new section with the given tag.
func (w *Writer) Begin(tag uint32) {
	if w.err == nil && w.in {
		w.err = fmt.Errorf("fgss: Begin(%d) inside unfinished section %d", tag, w.tag)
		return
	}
	w.tag = tag
	w.in = true
	w.buf = w.buf[:0]
}

// End closes the current section, writing its tag, length, and payload.
func (w *Writer) End() {
	if w.err != nil {
		return
	}
	if !w.in {
		w.err = fmt.Errorf("fgss: End without Begin")
		return
	}
	w.in = false
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], w.tag)
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(w.buf)))
	if _, err := w.out.Write(hdr[:]); err != nil {
		w.err = fmt.Errorf("fgss: write section %d: %w", w.tag, err)
		return
	}
	if _, err := w.out.Write(w.buf); err != nil {
		w.err = fmt.Errorf("fgss: write section %d: %w", w.tag, err)
	}
}

// U64 appends an unsigned scalar as a uvarint.
func (w *Writer) U64(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

// I64 appends a signed scalar as a zigzag varint.
func (w *Writer) I64(v int64) { w.buf = binary.AppendVarint(w.buf, v) }

// Int appends an int as a zigzag varint.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(b bool) {
	if b {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// Bytes appends a length-prefixed byte string.
func (w *Writer) Bytes(b []byte) {
	w.U64(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// Flush reports the first error encountered, if any. The stream is
// complete once every section has been written; there is no trailer.
func (w *Writer) Flush() error {
	if w.err == nil && w.in {
		w.err = fmt.Errorf("fgss: Flush inside unfinished section %d", w.tag)
	}
	return w.err
}

// Reader decodes an FGSS stream section by section.
type Reader struct {
	data []byte
	off  int // next unread byte in data (section framing)
	sec  []byte
	soff int // next unread byte in sec (payload scalars)
	tag  uint32
	in   bool
	err  error
}

// NewReader buffers the stream, validates the header, and refuses a
// snapshot whose EngineVersion or config fingerprint does not match
// the caller's.
func NewReader(r io.Reader, engineVersion uint32, fingerprint [32]byte) (*Reader, error) {
	data, err := io.ReadAll(io.LimitReader(r, maxSnapshotBytes+1))
	if err != nil {
		return nil, fmt.Errorf("fgss: read snapshot: %w", err)
	}
	if len(data) > maxSnapshotBytes {
		return nil, fmt.Errorf("fgss: snapshot exceeds %d bytes", maxSnapshotBytes)
	}
	if len(data) < HeaderSize {
		return nil, fmt.Errorf("fgss: truncated header: %d bytes, want at least %d", len(data), HeaderSize)
	}
	if string(data[0:4]) != Magic {
		return nil, fmt.Errorf("fgss: bad magic %q: not a FIGARO snapshot", data[0:4])
	}
	if v := binary.LittleEndian.Uint16(data[4:6]); v != FormatVersion {
		return nil, fmt.Errorf("fgss: unsupported snapshot format version %d (this build reads version %d)", v, FormatVersion)
	}
	if v := binary.LittleEndian.Uint32(data[8:12]); v != engineVersion {
		return nil, fmt.Errorf("fgss: snapshot was written by engine version %d, this build is version %d: timing models differ, restore refused", v, engineVersion)
	}
	var got [32]byte
	copy(got[:], data[12:44])
	if got != fingerprint {
		return nil, fmt.Errorf("fgss: snapshot config fingerprint %x does not match this run's config %x: restore refused", got[:4], fingerprint[:4])
	}
	return &Reader{data: data, off: HeaderSize}, nil
}

// Section opens the next section and requires its tag to match.
func (r *Reader) Section(tag uint32) {
	if r.err != nil {
		return
	}
	if r.in {
		r.err = fmt.Errorf("fgss: Section(%d) inside unfinished section %d", tag, r.tag)
		return
	}
	if len(r.data)-r.off < 8 {
		r.err = fmt.Errorf("fgss: truncated stream: want section %d, have %d bytes", tag, len(r.data)-r.off)
		return
	}
	got := binary.LittleEndian.Uint32(r.data[r.off : r.off+4])
	n := binary.LittleEndian.Uint32(r.data[r.off+4 : r.off+8])
	r.off += 8
	if got != tag {
		r.err = fmt.Errorf("fgss: section tag %d, want %d: layer order mismatch", got, tag)
		return
	}
	if uint64(n) > uint64(len(r.data)-r.off) {
		r.err = fmt.Errorf("fgss: section %d claims %d bytes, only %d remain", tag, n, len(r.data)-r.off)
		return
	}
	r.tag = tag
	r.in = true
	r.sec = r.data[r.off : r.off+int(n)]
	r.soff = 0
	r.off += int(n)
}

// EndSection closes the current section, requiring its payload to be
// fully consumed.
func (r *Reader) EndSection() {
	if r.err != nil {
		return
	}
	if !r.in {
		r.err = fmt.Errorf("fgss: EndSection without Section")
		return
	}
	if r.soff != len(r.sec) {
		r.err = fmt.Errorf("fgss: section %d: %d undecoded payload bytes", r.tag, len(r.sec)-r.soff)
		return
	}
	r.in = false
}

// U64 decodes one uvarint from the current section. binary.Uvarint
// also reads a longer encoding of a value, such as 80 00 for 0, whose
// last byte is zero; the writer never produces one, so it is refused.
func (r *Reader) U64() uint64 {
	if r.err != nil {
		return 0
	}
	b := r.sec[r.soff:]
	v, n := binary.Uvarint(b)
	if n <= 0 || n > 1 && b[n-1] == 0 {
		r.err = fmt.Errorf("fgss: section %d: truncated or overlong varint at offset %d", r.tag, r.soff)
		return 0
	}
	r.soff += n
	return v
}

// I64 decodes one zigzag varint from the current section, under U64's
// shortest-encoding rule.
func (r *Reader) I64() int64 {
	u := r.U64()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

// Int decodes one zigzag varint as an int.
func (r *Reader) Int() int { return int(r.I64()) }

// Expect decodes a count the receiver's configuration fixes, such as
// its bank or core count, and rejects any other value. It reports
// whether decoding may go on.
func (r *Reader) Expect(want int, what string) bool {
	if got := r.Int(); r.err == nil && got != want {
		r.Reject("%s: %d, want %d", what, got, want)
	}
	return r.err == nil
}

// Len decodes the length of a list of at most max elements and rejects
// a negative one or one above max. Every element takes a byte at least,
// so a length above the bytes left in the section is rejected too,
// before anything is sized by it. It returns 0 once decoding has failed.
func (r *Reader) Len(max int, what string) int {
	n := r.Int()
	if r.err == nil && (n < 0 || n > max || n > len(r.sec)-r.soff) {
		r.Reject("%s: %d, outside [0,%d] or past the section's end", what, n, max)
	}
	if r.err != nil {
		return 0
	}
	return n
}

// Bool decodes one byte as a boolean; any value other than 0 or 1 is
// a decode error.
func (r *Reader) Bool() bool {
	if r.err != nil {
		return false
	}
	if r.soff >= len(r.sec) {
		r.err = fmt.Errorf("fgss: section %d: truncated bool at offset %d", r.tag, r.soff)
		return false
	}
	b := r.sec[r.soff]
	r.soff++
	if b > 1 {
		r.err = fmt.Errorf("fgss: section %d: invalid bool byte %d at offset %d", r.tag, b, r.soff-1)
		return false
	}
	return b == 1
}

// Bytes decodes one length-prefixed byte string. The returned slice
// aliases the snapshot buffer; copy it if it must outlive the Reader.
func (r *Reader) Bytes() []byte {
	n := r.U64()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.sec)-r.soff) {
		r.err = fmt.Errorf("fgss: section %d: byte string claims %d bytes, only %d remain", r.tag, n, len(r.sec)-r.soff)
		return nil
	}
	b := r.sec[r.soff : r.soff+int(n)]
	r.soff += int(n)
	return b
}

// Reject records a decode error for a value that framed correctly but
// is out of range for the layer reading it, so a layer refuses corrupt
// state through the same sticky error as a framing fault. The first
// error wins.
func (r *Reader) Reject(format string, args ...any) { r.RejectIn(r.tag, format, args...) }

// RejectIn is Reject for a value of an earlier section, tag, that only
// a check made after later sections were read can refuse.
func (r *Reader) RejectIn(tag uint32, format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("fgss: section %d: %s", tag, fmt.Sprintf(format, args...))
	}
}

// Err reports the first decode error encountered so far.
func (r *Reader) Err() error { return r.err }

// Close verifies the stream was fully consumed: no unfinished section
// and no trailing bytes after the last section.
func (r *Reader) Close() error {
	if r.err != nil {
		return r.err
	}
	if r.in {
		return fmt.Errorf("fgss: Close inside unfinished section %d", r.tag)
	}
	if r.off != len(r.data) {
		return fmt.Errorf("fgss: %d trailing bytes after the last section", len(r.data)-r.off)
	}
	return nil
}
