package sim

import (
	"testing"

	"repro/internal/ev"
	"repro/internal/memctrl"
)

// TestDrainPreservesPerChannelOrder verifies the adapter's head-of-line
// semantics: once a request for a channel is blocked on a full controller
// queue, younger requests for that channel must stall behind it, even if
// they target the other (non-full) queue.
func TestDrainPreservesPerChannelOrder(t *testing.T) {
	cfg := DefaultConfig(Base, smallMix(t, "mcf"))
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := s.ctrls[0]

	// Fill the write queue to capacity directly.
	for i := 0; ctrl.CanAccept(true); i++ {
		addr := uint64(i) * 64
		_, loc := s.mapper.Decode(addr)
		ctrl.Enqueue(&memctrl.Request{Addr: addr, Loc: loc, IsWrite: true}, 0)
	}

	// Buffer an (older) write that cannot enter, then a younger read that
	// could — the read queue has space, but order must hold.
	s.adapter.Request(1<<20, true, ev.Token{})
	s.adapter.Request(2<<20, false, ev.Token{Kind: ev.CoreSlot})
	s.adapter.drain(0)

	if got := ctrl.PendingReads(); got != 0 {
		t.Errorf("younger read entered the controller ahead of a blocked write (pending reads = %d)", got)
	}
	if got := len(s.adapter.pending); got != 2 {
		t.Fatalf("adapter buffered %d requests, want 2", got)
	}

	// Drain the controller until the write queue has space again; the
	// buffered write and read must then enter in order.
	now := int64(1)
	for ; !ctrl.CanAccept(true) && now < 1_000_000; now++ {
		ctrl.Tick(now, func(int64, uint64) {})
	}
	if !ctrl.CanAccept(true) {
		t.Fatal("write queue never drained")
	}
	writesBefore := ctrl.PendingWrites()
	s.adapter.drain(now)
	if got := len(s.adapter.pending); got != 0 {
		t.Errorf("adapter still buffers %d requests after space freed", got)
	}
	if got := ctrl.PendingWrites(); got != writesBefore+1 {
		t.Errorf("pending writes = %d, want %d", got, writesBefore+1)
	}
	if got := ctrl.PendingReads(); got != 1 {
		t.Errorf("pending reads = %d, want 1", got)
	}
}

// TestDrainIndependentChannels verifies that one channel's blockage does
// not stall requests bound for another channel.
func TestDrainIndependentChannels(t *testing.T) {
	cfg := DefaultConfig(Base, smallMix(t, "mcf"))
	cfg.Channels = 2
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctrl0 := s.ctrls[0]
	for i := 0; ctrl0.CanAccept(true); i++ {
		addr := uint64(i) * 64
		ch, loc := s.mapper.Decode(addr)
		if ch != 0 {
			continue
		}
		ctrl0.Enqueue(&memctrl.Request{Addr: addr, Loc: loc, IsWrite: true}, 0)
	}

	// Find one address per channel.
	var addr0, addr1 uint64
	found0, found1 := false, false
	for a := uint64(0); !(found0 && found1); a += 64 {
		switch ch, _ := s.mapper.Decode(a); ch {
		case 0:
			if !found0 {
				addr0, found0 = a, true
			}
		case 1:
			if !found1 {
				addr1, found1 = a, true
			}
		}
	}

	s.adapter.Request(addr0, true, ev.Token{})  // blocked: channel 0 write queue full
	s.adapter.Request(addr1, false, ev.Token{}) // channel 1 is free
	s.adapter.drain(0)

	if got := s.ctrls[1].PendingReads(); got != 1 {
		t.Errorf("channel 1 read blocked by channel 0 backlog (pending reads = %d)", got)
	}
	if got := len(s.adapter.pending); got != 1 {
		t.Errorf("adapter buffers %d requests, want 1 (the blocked channel-0 write)", got)
	}
}

// TestEventLanesStayBounded checks that every event lane's ring stays
// small over a long run: eight memory-intensive cores (mix-100-0) under
// FIGCache-Fast at 500k instructions per core. A lane holds only the
// events due within its fixed delay, so its ring need not grow with run
// length; an array that restarted only when its lane drained reached
// 4,864 entries on the LLC lane of this run.
func TestEventLanesStayBounded(t *testing.T) {
	cfg := DefaultConfig(FIGCacheFast, eightCoreMix(t, 100))
	cfg.TargetInsts = 500_000
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, l := range s.events.lanes {
		if len(l.ring) > 64 {
			t.Errorf("lane %d (delay %d) has a %d-entry ring, want at most 64", i, l.delay, len(l.ring))
		}
	}
}
