package fgss

import (
	"bytes"
	"strings"
	"testing"
)

func testFingerprint() [32]byte {
	var fp [32]byte
	for i := range fp {
		fp[i] = byte(i * 7)
	}
	return fp
}

// encode builds a small two-section stream for the rejection tests.
func encode(t *testing.T, engineVersion uint32, fp [32]byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, engineVersion, fp)
	w.Begin(1)
	w.U64(42)
	w.I64(-7)
	w.Bool(true)
	w.Bytes([]byte("payload"))
	w.End()
	w.Begin(2)
	w.Int(5)
	w.End()
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenHeader pins the exact on-disk header layout: any change to
// the magic, the field offsets, or the endianness breaks previously
// written snapshots and must be deliberate (with a FormatVersion bump),
// never accidental.
func TestGoldenHeader(t *testing.T) {
	fp := testFingerprint()
	img := encode(t, 3, fp)
	want := append([]byte{
		'F', 'G', 'S', 'S', // magic
		8, 0, // format version 8, little-endian u16
		0, 0, // reserved
		3, 0, 0, 0, // engine version 3, little-endian u32
	}, fp[:]...)
	if len(img) < HeaderSize {
		t.Fatalf("stream is %d bytes, want at least the %d-byte header", len(img), HeaderSize)
	}
	if !bytes.Equal(img[:HeaderSize], want) {
		t.Errorf("header bytes changed:\n got %x\nwant %x", img[:HeaderSize], want)
	}
}

func TestRoundTrip(t *testing.T) {
	fp := testFingerprint()
	img := encode(t, 3, fp)
	r, err := NewReader(bytes.NewReader(img), 3, fp)
	if err != nil {
		t.Fatal(err)
	}
	r.Section(1)
	if got := r.U64(); got != 42 {
		t.Errorf("U64 = %d, want 42", got)
	}
	if got := r.I64(); got != -7 {
		t.Errorf("I64 = %d, want -7", got)
	}
	if !r.Bool() {
		t.Error("Bool = false, want true")
	}
	if got := r.Bytes(); string(got) != "payload" {
		t.Errorf("Bytes = %q, want %q", got, "payload")
	}
	r.EndSection()
	r.Section(2)
	if got := r.Int(); got != 5 {
		t.Errorf("Int = %d, want 5", got)
	}
	r.EndSection()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReaderRejectsHeader checks every header defense of the snapshot
// container refuses with a message that names the problem.
func TestReaderRejectsHeader(t *testing.T) {
	fp := testFingerprint()
	img := encode(t, 3, fp)

	otherFP := fp
	otherFP[0] ^= 0xff
	cases := []struct {
		name string
		img  []byte
		ev   uint32
		fp   [32]byte
		want string
	}{
		{"bad magic", append([]byte("NOPE"), img[4:]...), 3, fp, "not a FIGARO snapshot"},
		{"bad format version", func() []byte {
			b := bytes.Clone(img)
			b[4] = 99
			return b
		}(), 3, fp, "unsupported snapshot format version"},
		{"format 2 snapshot", func() []byte {
			b := bytes.Clone(img)
			b[4] = 2
			return b
		}(), 3, fp, "unsupported snapshot format version 2"},
		{"format 3 snapshot", func() []byte {
			b := bytes.Clone(img)
			b[4] = 3
			return b
		}(), 3, fp, "unsupported snapshot format version 3"},
		{"format 4 snapshot", func() []byte {
			b := bytes.Clone(img)
			b[4] = 4
			return b
		}(), 3, fp, "unsupported snapshot format version 4"},
		{"format 5 snapshot", func() []byte {
			b := bytes.Clone(img)
			b[4] = 5
			return b
		}(), 3, fp, "unsupported snapshot format version 5"},
		{"format 6 snapshot", func() []byte {
			b := bytes.Clone(img)
			b[4] = 6
			return b
		}(), 3, fp, "unsupported snapshot format version 6"},
		{"format 7 snapshot", func() []byte {
			b := bytes.Clone(img)
			b[4] = 7
			return b
		}(), 3, fp, "unsupported snapshot format version 7 (this build reads version 8)"},
		{"engine version mismatch", img, 4, fp, "engine version 3, this build is version 4"},
		{"fingerprint mismatch", img, 3, otherFP, "does not match this run's config"},
		{"truncated header", img[:HeaderSize/2], 3, fp, "truncated header"},
		{"empty", nil, 3, fp, "truncated header"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewReader(bytes.NewReader(tc.img), tc.ev, tc.fp)
			if err == nil {
				t.Fatal("corrupt header accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %q, want it to contain %q", err, tc.want)
			}
		})
	}
}

// TestReaderRejectsBody covers the section-level defenses: truncation,
// tag mismatch, oversized claims, trailing bytes, undecoded payload,
// invalid bool bytes, and a value a layer rejects.
func TestReaderRejectsBody(t *testing.T) {
	fp := testFingerprint()
	img := encode(t, 3, fp)
	open := func(t *testing.T, b []byte) *Reader {
		t.Helper()
		r, err := NewReader(bytes.NewReader(b), 3, fp)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	t.Run("truncated section", func(t *testing.T) {
		r := open(t, img[:HeaderSize+4])
		r.Section(1)
		if err := r.Err(); err == nil || !strings.Contains(err.Error(), "truncated stream") {
			t.Errorf("err = %v, want truncated stream", err)
		}
	})

	t.Run("tag mismatch", func(t *testing.T) {
		r := open(t, img)
		r.Section(2)
		if err := r.Err(); err == nil || !strings.Contains(err.Error(), "layer order mismatch") {
			t.Errorf("err = %v, want layer order mismatch", err)
		}
	})

	t.Run("oversized section claim", func(t *testing.T) {
		b := bytes.Clone(img)
		b[HeaderSize+4] = 0xff // section 1's length field
		r := open(t, b)
		r.Section(1)
		if err := r.Err(); err == nil || !strings.Contains(err.Error(), "only") {
			t.Errorf("err = %v, want oversized-claim refusal", err)
		}
	})

	t.Run("undecoded payload bytes", func(t *testing.T) {
		r := open(t, img)
		r.Section(1)
		_ = r.U64() // leave the rest of the payload unread
		r.EndSection()
		if err := r.Err(); err == nil || !strings.Contains(err.Error(), "undecoded payload bytes") {
			t.Errorf("err = %v, want undecoded payload bytes", err)
		}
	})

	t.Run("trailing bytes", func(t *testing.T) {
		r := open(t, append(bytes.Clone(img), 0xAA))
		r.Section(1)
		_, _, _ = r.U64(), r.I64(), r.Bool()
		r.Bytes()
		r.EndSection()
		r.Section(2)
		r.Int()
		r.EndSection()
		if err := r.Close(); err == nil || !strings.Contains(err.Error(), "trailing bytes after the last section") {
			t.Errorf("Close = %v, want trailing-bytes refusal", err)
		}
	})

	t.Run("invalid bool byte", func(t *testing.T) {
		var buf bytes.Buffer
		w := NewWriter(&buf, 3, fp)
		w.Begin(1)
		w.U64(2) // will be read back as a bool byte > 1
		w.End()
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		r := open(t, buf.Bytes())
		r.Section(1)
		r.Bool()
		if err := r.Err(); err == nil || !strings.Contains(err.Error(), "invalid bool byte") {
			t.Errorf("err = %v, want invalid bool byte", err)
		}
	})

	t.Run("overlong byte string", func(t *testing.T) {
		var buf bytes.Buffer
		w := NewWriter(&buf, 3, fp)
		w.Begin(1)
		w.U64(1 << 20) // length prefix far beyond the payload
		w.End()
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		r := open(t, buf.Bytes())
		r.Section(1)
		r.Bytes()
		if err := r.Err(); err == nil || !strings.Contains(err.Error(), "byte string claims") {
			t.Errorf("err = %v, want byte-string claim refusal", err)
		}
	})

	// A section holding raw payload bytes, past the writer's encoders.
	raw := func(t *testing.T, payload ...byte) *Reader {
		t.Helper()
		b := encode(t, 3, fp)[:HeaderSize]
		b = append(b, 1, 0, 0, 0, byte(len(payload)), 0, 0, 0)
		r := open(t, append(b, payload...))
		r.Section(1)
		return r
	}

	t.Run("overlong varint", func(t *testing.T) {
		// binary.Uvarint reads each of these as a value with a shorter
		// encoding: 0, 1 and 128.
		for _, payload := range [][]byte{{0x80, 0x00}, {0x81, 0x80, 0x00}, {0x80, 0x81, 0x00}} {
			for name, decode := range map[string]func(*Reader){
				"U64": func(r *Reader) { r.U64() },
				"I64": func(r *Reader) { r.I64() },
			} {
				r := raw(t, payload...)
				decode(r)
				if err := r.Err(); err == nil || !strings.Contains(err.Error(), "overlong varint at offset 0") {
					t.Errorf("%s of % x: err = %v, want overlong varint", name, payload, err)
				}
			}
		}
		r := raw(t, 0x80, 0x01, 0x00)
		if v := r.U64(); v != 128 || r.Err() != nil {
			t.Errorf("U64 of 80 01 = %d, %v; want 128 and no error", v, r.Err())
		}
	})

	t.Run("count the configuration fixes", func(t *testing.T) {
		r := raw(t, 4, 4) // zigzag 2, twice
		if !r.Expect(2, "banks") || r.Err() != nil {
			t.Fatalf("Expect(2) of 2 failed: %v", r.Err())
		}
		if r.Expect(3, "banks") {
			t.Error("Expect(3) of 2 reported success")
		}
		if err := r.Err(); err == nil || err.Error() != "fgss: section 1: banks: 2, want 3" {
			t.Errorf("err = %v, want the count named", err)
		}
	})

	t.Run("list length", func(t *testing.T) {
		for _, tc := range []struct {
			payload []byte
			max     int
			want    int
			err     string
		}{
			{[]byte{4, 0, 0}, 2, 2, ""},
			{[]byte{1, 0}, 2, 0, "rows: -1, outside [0,2]"},
			{[]byte{6, 0, 0, 0}, 2, 0, "rows: 3, outside [0,2]"},
			{[]byte{6, 0, 0}, 5, 0, "rows: 3, outside [0,5] or past the section's end"},
		} {
			r := raw(t, tc.payload...)
			n := r.Len(tc.max, "rows")
			err := r.Err()
			if n != tc.want || (err == nil) != (tc.err == "") || err != nil && !strings.Contains(err.Error(), tc.err) {
				t.Errorf("Len(%d) of % x = %d, %v; want %d, %q", tc.max, tc.payload, n, err, tc.want, tc.err)
			}
		}
	})

	t.Run("layer rejects a value", func(t *testing.T) {
		r := open(t, img)
		r.Section(1)
		if v := r.U64(); v != 42 {
			t.Fatalf("U64 = %d, want 42", v)
		}
		r.Reject("value %d out of range", 42)
		r.Reject("second rejection")
		if got := r.I64(); got != 0 {
			t.Errorf("I64 after Reject = %d, want 0 (sticky error)", got)
		}
		err := r.Err()
		if err == nil || err.Error() != "fgss: section 1: value 42 out of range" {
			t.Errorf("err = %v, want the first rejection, naming the section", err)
		}
		if cerr := r.Close(); cerr != err {
			t.Errorf("Close = %v, want the rejection %v", cerr, err)
		}
	})
}

// TestWriterMisuse pins the writer's framing defenses.
func TestWriterMisuse(t *testing.T) {
	fp := testFingerprint()
	var buf bytes.Buffer
	w := NewWriter(&buf, 3, fp)
	w.Begin(1)
	w.Begin(2) // nested Begin
	if err := w.Flush(); err == nil || !strings.Contains(err.Error(), "inside unfinished section") {
		t.Errorf("nested Begin: Flush = %v, want unfinished-section error", err)
	}

	buf.Reset()
	w = NewWriter(&buf, 3, fp)
	w.End()
	if err := w.Flush(); err == nil || !strings.Contains(err.Error(), "End without Begin") {
		t.Errorf("bare End: Flush = %v, want End-without-Begin error", err)
	}

	buf.Reset()
	w = NewWriter(&buf, 3, fp)
	w.Begin(1)
	if err := w.Flush(); err == nil || !strings.Contains(err.Error(), "Flush inside unfinished section") {
		t.Errorf("open section: Flush = %v, want unfinished-section error", err)
	}
}
