package workload

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/fgss"
)

// restoreFrom restores into restore from a section fill writes and
// returns the decode error.
func restoreFrom(t *testing.T, fill func(w *fgss.Writer), restore func(r *fgss.Reader)) error {
	t.Helper()
	var buf bytes.Buffer
	w := fgss.NewWriter(&buf, 1, [32]byte{})
	w.Begin(1)
	fill(w)
	w.End()
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := fgss.NewReader(&buf, 1, [32]byte{})
	if err != nil {
		t.Fatal(err)
	}
	r.Section(1)
	restore(r)
	r.EndSection()
	return r.Close()
}

// TestRestoreRejects checks that a generator section whose stream count
// is not the generator's is a decode error. The section ends where
// restore used to stop decoding without an error. The section Snapshot
// writes restores.
func TestRestoreRejects(t *testing.T) {
	spec, err := ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	gen := func() *Generator {
		g, err := NewGenerator(spec, 1, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	streams := len(gen().streams)
	cases := []struct {
		name    string
		fill    func(w *fgss.Writer)
		restore func(r *fgss.Reader)
		wantErr string
	}{
		{"generator as Snapshot writes", gen().Snapshot, gen().Restore, ""},
		{"generator stream count", func(w *fgss.Writer) {
			w.U64(1) // rng
			w.Int(streams + 1)
		}, gen().Restore, fmt.Sprintf("workload: generator streams: %d, want %d", streams+1, streams)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := restoreFrom(t, tc.fill, tc.restore)
			if (err == nil) != (tc.wantErr == "") || err != nil && !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("restore error = %v, want %q", err, tc.wantErr)
			}
		})
	}
}
