package cpu

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"repro/internal/fgss"
)

const snapTag = 3

// encodeSection writes one FGSS section through fill and opens it for
// reading, positioned at the section's payload.
func encodeSection(t *testing.T, fill func(w *fgss.Writer)) *fgss.Reader {
	t.Helper()
	var fp [32]byte
	var buf bytes.Buffer
	w := fgss.NewWriter(&buf, 1, fp)
	w.Begin(snapTag)
	fill(w)
	w.End()
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := fgss.NewReader(&buf, 1, fp)
	if err != nil {
		t.Fatal(err)
	}
	r.Section(snapTag)
	return r
}

// TestSnapshotRoundTripWithLoadsInFlight restores a core whose load
// ring wraps the window and holds a completed load behind its waiting
// front, and checks the copy carries the same window and continues in
// lockstep once both cores' fills are delivered the same way.
func TestSnapshotRoundTripWithLoadsInFlight(t *testing.T) {
	// Every load reads one block, so they all wait on a single L1 miss
	// that never returns and the test completes them by hand.
	recs := []TraceRecord{{Bubbles: 5}}
	c, s, _ := newCore(t, recs, 1_000_000, 1<<40)
	for ; c.pendN < 7 || c.pendHead+c.pendN <= WindowSize; s.now++ {
		if s.now > 10_000 {
			t.Fatal("the load ring never wrapped")
		}
		s.fire()
		c.Tick(s.now)
		if c.pendN == 8 {
			// Complete the oldest load, so the ring's front moves round.
			c.CompleteSlot(c.pend[c.pendHead])
		}
	}
	c.CompleteSlot(c.pend[c.ring(c.pendHead+1)]) // completes behind the front

	r := encodeSection(t, c.Snapshot)
	twin, _, _ := newCore(t, recs, 1_000_000, 1<<40)
	twin.Restore(r)
	r.EndSection()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if twin.head != c.head || twin.tail != c.tail || twin.count != c.count ||
		twin.Retired != c.Retired || twin.pending != c.pending || twin.hasPending != c.hasPending {
		t.Fatalf("restored window (head %d tail %d count %d ret %d) differs from (head %d tail %d count %d ret %d)",
			twin.head, twin.tail, twin.count, twin.Retired, c.head, c.tail, c.count, c.Retired)
	}
	if got, want := twin.trace.(*sliceTrace).pos, c.trace.(*sliceTrace).pos; got != want {
		t.Fatalf("restored trace cursor %d, want %d", got, want)
	}
	if a, b := liveRing(twin), liveRing(c); !slices.Equal(a, b) {
		t.Fatalf("restored ring %v, want %v", a, b)
	}
	if !slices.Equal(twin.waiting, c.waiting) {
		t.Fatal("restored waiting flags differ")
	}
	// Deliver every outstanding fill to both, in age order.
	for _, slot := range liveRing(c) {
		c.CompleteSlot(slot)
		twin.CompleteSlot(slot)
		if c.retirableRun() != twin.retirableRun() {
			t.Fatalf("after completing slot %d: run %d vs %d", slot, twin.retirableRun(), c.retirableRun())
		}
	}
	if c.pendN != 0 || twin.pendN != 0 {
		t.Fatalf("rings not drained: %d and %d", c.pendN, twin.pendN)
	}
}

// TestRestoreRejectsMalformedWindow feeds Restore cores sections whose
// window does not fit the receiver: each must surface as a decode error
// naming the core, not as a panic or a restored core.
func TestRestoreRejectsMalformedWindow(t *testing.T) {
	const size = WindowSize
	type entry struct {
		slot    int
		waiting bool
	}
	cases := []struct {
		name                     string
		head, tail, count, nRing int
		ring                     []entry
	}{
		{"head past the window", size, 0, 0, 0, nil},
		{"negative tail", 0, -1, 0, 0, nil},
		{"count above the window", 0, 1, size + 1, 0, nil},
		{"tail not count past head", 10, 12, 5, 0, nil},
		{"ring longer than the window", 0, 0, size, size + 1, nil},
		{"ring slot outside the window", 0, 8, 8, 1, []entry{{size, true}}},
		{"ring slot not occupied", 4, 8, 4, 1, []entry{{2, true}}},
		{"ring out of age order", 250, 4, 10, 2, []entry{{2, true}, {252, true}}},
		{"duplicate ring slot", 0, 8, 8, 2, []entry{{3, true}, {3, false}}},
		{"front not waiting", 0, 8, 8, 2, []entry{{3, false}, {5, true}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := encodeSection(t, func(w *fgss.Writer) {
				w.Int(tc.head)
				w.Int(tc.tail)
				w.Int(tc.count)
				w.Int(tc.nRing)
				for _, e := range tc.ring {
					w.Int(e.slot)
					w.Bool(e.waiting)
				}
			})
			c, _, _ := newCore(t, []TraceRecord{{Bubbles: 1}}, 10, 100)
			c.Restore(r)
			err := r.Err()
			if err == nil || !strings.Contains(err.Error(), "cpu: core 0") {
				t.Fatalf("Restore accepted the section or failed elsewhere: err = %v", err)
			}
		})
	}
}
