package dram

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/fgss"
)

// restoreSection restores ch from a section that fill writes and
// returns the decode error.
func restoreSection(t *testing.T, ch *Channel, fill func(w *fgss.Writer)) error {
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
	ch.Restore(r)
	r.EndSection()
	return r.Close()
}

// TestChannelRestoreRejects checks that a channel section whose bank,
// rank or tCCD_L window count does not match the channel, or whose tFAW
// history is longer than the channel keeps, is a decode error. Each
// section ends where restore used to stop decoding without an error, or
// holds a history restore used to accept. A section Snapshot wrote
// restores.
func TestChannelRestoreRejects(t *testing.T) {
	src := testChannel(t, 0, false)
	// channel writes the channel's section as Snapshot does, with the
	// given counts, and stops after the first count that differs.
	channel := func(banks, ranks, hist, windows int) func(w *fgss.Writer) {
		return func(w *fgss.Writer) {
			w.Int(banks)
			if banks != len(src.banks) {
				return
			}
			for i := range src.banks {
				src.banks[i].Snapshot(w)
			}
			w.Int(ranks)
			if ranks != len(src.actTimes) {
				return
			}
			for range src.actTimes {
				w.Int(hist)
				for i := 0; i < hist; i++ {
					w.I64(int64(i))
				}
				w.I64(0)
				w.I64(0)
				w.Bool(false)
			}
			w.Int(int(CmdRD))
			w.I64(0)
			w.I64(0)
			w.Int(windows)
			if windows != len(src.colReadyL) {
				return
			}
			for range src.colReadyL {
				w.I64(0)
			}
			w.I64(0)
			w.I64(0)
		}
	}
	banks, ranks, windows := len(src.banks), len(src.actTimes), len(src.colReadyL)
	cases := []struct {
		name    string
		fill    func(w *fgss.Writer)
		wantErr string
	}{
		{"as Snapshot writes", src.Snapshot, ""},
		{"full tFAW history", channel(banks, ranks, actHistory, windows), ""},
		{"no banks", channel(0, ranks, 0, windows), "dram: banks: 0, want 16"},
		{"no ranks", channel(banks, 0, 0, windows), "dram: ranks: 0, want 1"},
		{"tFAW history past its length", channel(banks, ranks, actHistory+1, windows), "dram: tFAW history: 9, outside [0,8]"},
		{"no tCCD_L windows", channel(banks, ranks, 0, 0), "dram: tCCD_L windows: 0, want 4"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := restoreSection(t, testChannel(t, 0, false), tc.fill)
			if (err == nil) != (tc.wantErr == "") || err != nil && !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("restore error = %v, want %q", err, tc.wantErr)
			}
		})
	}
}
