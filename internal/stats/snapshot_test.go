package stats

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/fgss"
)

// TestReservoirRestoreRejectsOverCapacity checks that a reservoir
// section holding more samples than the reservoir's capacity is a
// decode error; the section ends where restore used to stop decoding
// without an error. A full reservoir's section restores.
func TestReservoirRestoreRejectsOverCapacity(t *testing.T) {
	for _, tc := range []struct {
		samples int
		wantErr string
	}{
		{4, ""},
		{5, "stats: reservoir samples: 5, outside [0,4]"},
	} {
		var buf bytes.Buffer
		w := fgss.NewWriter(&buf, 1, [32]byte{})
		w.Begin(1)
		w.I64(10) // seen
		w.Int(tc.samples)
		if tc.wantErr == "" {
			for i := 0; i < tc.samples; i++ {
				w.I64(int64(i))
			}
			w.U64(7) // rng
		}
		w.End()
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		r, err := fgss.NewReader(&buf, 1, [32]byte{})
		if err != nil {
			t.Fatal(err)
		}
		r.Section(1)
		NewReservoir(4, 1).Restore(r)
		r.EndSection()
		err = r.Close()
		if (err == nil) != (tc.wantErr == "") || err != nil && !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%d samples: restore error = %v, want %q", tc.samples, err, tc.wantErr)
		}
	}
}
