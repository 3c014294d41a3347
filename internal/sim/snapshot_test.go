package sim

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dram"
	"repro/internal/ev"
	"repro/internal/fgss"
	"repro/internal/memctrl"
	"repro/internal/workload"
)

// snapshotAt builds a system, runs it to k total retired instructions,
// and returns the system plus its snapshot bytes.
func snapshotAt(t testing.TB, cfg Config, k int64) (*System, []byte) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.RunUntilRetired(k)
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return s, buf.Bytes()
}

// TestRestoreRefusesMismatchedConfig checks that a snapshot can only be
// restored into a System built for the exact configuration that wrote
// it: a different seed changes the fingerprint, and restore is refused
// at the header with a clear error.
func TestRestoreRefusesMismatchedConfig(t *testing.T) {
	cfg := DefaultConfig(FIGCacheFast, smallMix(t, "mcf"))
	cfg.TargetInsts = 10_000
	_, snap := snapshotAt(t, cfg, 3_000)

	other := cfg
	other.Seed = cfg.Seed + 1
	sys, err := New(other)
	if err != nil {
		t.Fatal(err)
	}
	err = sys.Restore(bytes.NewReader(snap))
	if err == nil {
		t.Fatal("restoring a snapshot into a different config succeeded, want fingerprint refusal")
	}
	if !strings.Contains(err.Error(), "restore refused") {
		t.Errorf("fingerprint mismatch error = %q, want it to mention refusal", err)
	}
}

// TestRestoreRefusesTamperedStream checks the container-level
// defenses: a flipped engine-version byte and a truncated stream are
// both rejected instead of decoding garbage.
func TestRestoreRefusesTamperedStream(t *testing.T) {
	cfg := DefaultConfig(Base, smallMix(t, "mcf"))
	cfg.TargetInsts = 10_000
	_, snap := snapshotAt(t, cfg, 3_000)

	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	tampered := bytes.Clone(snap)
	tampered[8]++ // EngineVersion low byte
	if err := sys.Restore(bytes.NewReader(tampered)); err == nil ||
		!strings.Contains(err.Error(), "engine version") {
		t.Errorf("tampered engine version: err = %v, want engine-version refusal", err)
	}

	if err := sys.Restore(bytes.NewReader(snap[:len(snap)/2])); err == nil {
		t.Error("restoring a truncated snapshot succeeded, want decode error")
	}
}

// TestRestoreRewindsDirtySystem restores a checkpoint into a System
// that has already run *past* it: every piece of mid-flight state —
// queued requests, outstanding MSHRs, pending events, open rows — is
// dirty and different, and restore must rewind all of it so the re-run
// finishes bit-identically to the uninterrupted run.
func TestRestoreRewindsDirtySystem(t *testing.T) {
	cfg := DefaultConfig(FIGCacheFast, warmMix(t))
	cfg.TargetInsts = 40_000

	want := runWith(t, cfg, false)
	sys, snap := snapshotAt(t, cfg, 10_000)
	sys.RunUntilRetired(25_000) // drive well past the checkpoint
	if err := sys.Restore(bytes.NewReader(snap)); err != nil {
		t.Fatal(err)
	}
	got, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("rewound run diverges from uninterrupted run:\n want: %+v\n  got: %+v", want, got)
	}
}

// BenchmarkSnapshotRoundTrip measures the cost of one checkpoint cycle
// — serializing a warm default-scale (1M-instruction) system and
// restoring it in place — plus its allocation footprint and snapshot
// size.
func BenchmarkSnapshotRoundTrip(b *testing.B) {
	spec, err := workload.ByName("mcf")
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig(FIGCacheFast, workload.Mix{Name: "mcf", Apps: workload.Sources(spec)})
	cfg.TargetInsts = 1_000_000
	sys, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	sys.RunUntilRetired(cfg.TargetInsts / 4) // warm every structure first
	var buf bytes.Buffer
	if err := sys.Snapshot(&buf); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(buf.Len()), "snapshot-bytes")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := sys.Snapshot(&buf); err != nil {
			b.Fatal(err)
		}
		if err := sys.Restore(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}

// eventsSection returns a reader positioned in a hand-built events
// section for s: one event carrying tok on the lane of its holder (the
// memory lane for a token without one), due the lane's delay after
// cycle 0, and s's other lanes, empty.
func eventsSection(t *testing.T, s *System, tok ev.Token) *fgss.Reader {
	t.Helper()
	lane := memLane
	if holder, err := s.tokenHolder(tok); err == nil {
		lane = s.laneOf(holder)
	}
	var buf bytes.Buffer
	w := fgss.NewWriter(&buf, 1, [32]byte{})
	w.Begin(snapSecEvents)
	w.Int(len(s.events.lanes))
	for i, l := range s.events.lanes {
		if i != lane {
			w.Int(0)
			continue
		}
		w.Int(1)
		w.I64(l.delay)
		ev.WriteToken(w, tok)
	}
	w.End()
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := fgss.NewReader(&buf, 1, [32]byte{})
	if err != nil {
		t.Fatal(err)
	}
	r.Section(snapSecEvents)
	return r
}

// TestRestoreRejectsBadTokens checks that a snapshot holding an event
// token Dispatch cannot execute on a one-core System — an unknown or
// no-action kind, a core or cache node that does not exist, a CoreSlot
// slot outside the 256-entry window — in the event queue or in an
// MSHR's waiter list is refused at restore instead of panicking when
// the token fires. The event queue is fed hand-built sections; the
// waiter case puts the token in a real L1 miss and restores the
// System's snapshot. A valid token passes both paths.
func TestRestoreRejectsBadTokens(t *testing.T) {
	cfg := DefaultConfig(Base, smallMix(t, "mcf"))
	cfg.TargetInsts = 10_000
	cases := []struct {
		name    string
		tok     ev.Token
		wantErr string
	}{
		{"valid core slot", ev.Token{Kind: ev.CoreSlot, ID: 0, Arg: 255}, ""},
		{"unknown kind", ev.Token{Kind: 9, Arg: 1}, "unknown event token kind 9"},
		{"no-action kind", ev.Token{Kind: ev.None}, "unknown event token kind 0"},
		{"core out of range", ev.Token{Kind: ev.CoreSlot, ID: 1, Arg: 3}, "names core 1 of 1"},
		{"negative core", ev.Token{Kind: ev.CoreSlot, ID: -1, Arg: 3}, "names core -1 of 1"},
		{"slot outside the window", ev.Token{Kind: ev.CoreSlot, ID: 0, Arg: 256}, "slot 256 of core 0's 256-entry window"},
		{"fill for a missing node", ev.Token{Kind: ev.MSHRFill, ID: 3, Arg: 0x40}, "names cache node 3 of 3"},
		{"start for a negative node", ev.Token{Kind: ev.MSHRStart, ID: -1, Arg: 0x40}, "names cache node -1 of 3"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			r := eventsSection(t, s, tc.tok)
			s.events.restore(r, 0, s.checkEvent)
			r.EndSection()
			if err := r.Close(); (err == nil) != (tc.wantErr == "") || err != nil && !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("events section: restore error = %v, want %q", err, tc.wantErr)
			}

			// An L1 miss with a free MSHR queues its completion token as
			// the MSHR's first waiter, unless it is the zero token.
			if tc.tok.IsZero() {
				return
			}
			s, err = New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !s.hier.L1s[0].Access(0x1000, false, tc.tok) {
				t.Fatal("a fresh L1 refused an access")
			}
			var buf bytes.Buffer
			if err := s.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			fresh, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			err = fresh.Restore(&buf)
			if (err == nil) != (tc.wantErr == "") || err != nil && !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("MSHR waiter: restore error = %v, want %q", err, tc.wantErr)
			}
		})
	}
}

// TestRestoreRejectsUnrunnableState checks that a snapshot holding
// state the run would fail on later is refused at restore, with an
// error naming the section that held it: a memory request whose address
// is no block of the memory or belongs to another channel, a read of a
// block the LLC has no miss outstanding for (whose derived completion
// would find no MSHR), a hook decision where no in-DRAM cache is, a hit
// outside its bank, an MSHR token naming a block its cache node has no
// miss outstanding for, an MSHR token held where the protocol never
// puts it (an LLC waiter filling an L1, which skips the L2 that fetches
// for it, a fill of an L2 on the memory lane, which only the LLC's fills
// reach, an MSHRStart waiting on a fill, and a fill waiting on another
// block's), and a miss with a second fetch in flight, or none. Each case
// puts the state into a real System through its own methods, snapshots
// it and restores the bytes into a fresh System.
// A restore that accepts the snapshot is then run for a while, to show
// the failure the rejection prevents.
func TestRestoreRejectsUnrunnableState(t *testing.T) {
	enqueue := func(s *System, r *memctrl.Request) {
		s.ctrls[0].Enqueue(r, 0)
	}
	buffer := func(s *System, r *memctrl.Request) {
		s.adapter.pending = append(s.adapter.pending, pendingReq{channel: 0, req: r})
	}
	fill := func(id int32, blk uint64) ev.Token {
		return ev.Token{Kind: ev.MSHRFill, ID: id, Arg: blk}
	}
	// l2Miss gives L2.0 a miss on blk that the LLC does not share: a
	// read of blk completing to L2.0 is the wrong holder's.
	l2Miss := func(s *System, blk uint64) {
		if !s.hier.L2s[0].Access(blk, false, ev.Token{}) {
			t.Fatal("a fresh L2 refused an access")
		}
	}
	want := func(msg string) func(*System) string { return func(*System) string { return msg } }
	cases := []struct {
		name     string
		preset   Preset
		channels int
		inject   func(s *System)
		wantErr  func(s *System) string
	}{
		{"outstanding misses", Base, 1, func(s *System) {
			// An LLC miss's fetch starts after the LLC's latency, and its
			// read enters the controller's queue. Then an L1 miss
			// schedules an MSHRStart for a block it has outstanding, a
			// write-back is queued and another buffered.
			s.hier.LLC.Access(0x6000, false, ev.Token{})
			s.events.fireDue(s.hier.LLC.Config().Latency, s)
			s.adapter.drain(0)
			s.hier.L1s[0].Access(0x1000, false, ev.Token{Kind: ev.CoreSlot, Arg: 3})
			enqueue(s, &memctrl.Request{Addr: 0x2000, IsWrite: true})
			buffer(s, &memctrl.Request{Addr: 0x7000, IsWrite: true})
			if s.ctrls[0].PendingReads() != 1 {
				t.Fatalf("%d reads queued, want the LLC miss's", s.ctrls[0].PendingReads())
			}
		}, nil},
		{"queued request token", Base, 1, func(s *System) {
			l2Miss(s, 0x4000)
			enqueue(s, &memctrl.Request{Addr: 0x4000})
		}, want("section 7: memctrl: read 0x4000 fetches a block the cache above has no miss outstanding for")},
		{"queued request service location", FIGCacheFast, 1, func(s *System) {
			r := &memctrl.Request{Addr: 0x40, IsWrite: true}
			enqueue(s, r)
			r.CacheHit, r.ServiceLoc.Row = true, 1<<20
		}, want("section 7: memctrl: request 0x40: hit on cache row 1048576 block 0, outside the bank")},
		{"queued hit without an in-DRAM cache", Base, 1, func(s *System) {
			r := &memctrl.Request{Addr: 0x40, IsWrite: true}
			enqueue(s, r)
			r.CacheHit, r.ServiceLoc.CacheRow = true, true
		}, want("section 7: memctrl: request 0x40: hook decision 2 on a controller without an in-DRAM cache")},
		{"queued request on another channel", Base, 2, func(s *System) {
			_, loc := s.mapper.Decode(0x40)
			enqueue(s, &memctrl.Request{Addr: s.mapper.Encode(1, loc), IsWrite: true})
		}, func(s *System) string {
			_, loc := s.mapper.Decode(0x40)
			return fmt.Sprintf("section 7: memctrl: controller 0: request %#x belongs to channel 1", s.mapper.Encode(1, loc))
		}},
		{"buffered request token", Base, 1, func(s *System) {
			l2Miss(s, 0x4000)
			buffer(s, &memctrl.Request{Addr: 0x4000})
		}, want("section 8: sim: buffered read 0x4000 fetches a block the LLC has no miss outstanding for")},
		{"buffered request location", Base, 1, func(s *System) {
			buffer(s, &memctrl.Request{Addr: uint64(s.mapper.TotalBytes()), IsWrite: true})
		}, func(s *System) string {
			return fmt.Sprintf("section 8: memctrl: request %#x is not a block of the %d-byte memory", s.mapper.TotalBytes(), s.mapper.TotalBytes())
		}},
		{"fill event for no miss", Base, 1, func(s *System) {
			s.events.schedule(s.laneOf(s.hier.L2s[0].NodeID()), 5, fill(s.hier.L1s[0].NodeID(), 0x1000))
		}, want("section 2: MSHR token (kind 3) names block 0x1000, which cache node 2 has no miss outstanding for")},
		{"start event for no miss", Base, 1, func(s *System) {
			s.events.schedule(s.laneOf(s.hier.L1s[0].NodeID()), 3, ev.Token{Kind: ev.MSHRStart, ID: s.hier.L1s[0].NodeID(), Arg: 0x1000})
		}, want("section 2: MSHR token (kind 2) names block 0x1000")},
		{"fill waiter for no miss", Base, 1, func(s *System) {
			s.hier.L2s[0].Access(0x3000, false, fill(s.hier.L1s[0].NodeID(), 0x3000))
		}, want("section 4: MSHR token (kind 3) names block 0x3000, which cache node 2")},
		{"queued request fill for no miss", Base, 1, func(s *System) {
			enqueue(s, &memctrl.Request{Addr: 0x4000})
		}, want("section 7: memctrl: read 0x4000 fetches a block the cache above has no miss outstanding for")},
		{"buffered request fill for no miss", Base, 1, func(s *System) {
			buffer(s, &memctrl.Request{Addr: 0x4000})
		}, want("section 8: sim: buffered read 0x4000 fetches a block the LLC has no miss outstanding for")},
		{"LLC waiter skipping the L2", Base, 1, func(s *System) {
			s.hier.L1s[0].Access(0x3000, false, ev.Token{Kind: ev.CoreSlot, Arg: 1})
			s.hier.LLC.Access(0x3000, false, fill(s.hier.L1s[0].NodeID(), 0x3000))
		}, want("section 4: cache LLC: MSHR 0x3000 waiter 0: token (kind 3, ID 2) is held by L2.0, not LLC")},
		{"L2 fill on the memory lane", Base, 1, func(s *System) {
			l2Miss(s, 0x5000)
			s.events.schedule(memLane, 5, fill(s.hier.L2s[0].NodeID(), 0x5000))
		}, want("section 2: event at cycle 5: token (kind 3, ID 1) is held by LLC, on lane 1, not lane 0")},
		{"MSHRStart waiter", Base, 1, func(s *System) {
			s.hier.L2s[0].Access(0x3000, false, ev.Token{Kind: ev.MSHRStart, ID: s.hier.L2s[0].NodeID(), Arg: 0x3000})
		}, want("section 4: cache L2.0: MSHR 0x3000 waiter 0: MSHRStart token for block 0x3000 of cache node 1 waits on a fill")},
		{"fill waiter on another block", Base, 1, func(s *System) {
			s.hier.L1s[0].Access(0x3000, false, ev.Token{Kind: ev.CoreSlot, Arg: 1})
			s.hier.L2s[0].Access(0x5000, false, fill(s.hier.L1s[0].NodeID(), 0x3000))
		}, want("section 4: cache L2.0: MSHR 0x5000 waiter 0: MSHRFill token for block 0x3000 of cache node 2 waits on block 0x5000")},
		{"second fetch of a miss", Base, 1, func(s *System) {
			// The LLC's MSHRStart is still due when its read is queued.
			s.hier.LLC.Access(0x6000, false, ev.Token{})
			enqueue(s, &memctrl.Request{Addr: 0x6000})
		}, want("section 7: a second fetch fills block 0x6000 of cache node 0")},
		{"miss with no fetch", Base, 1, func(s *System) {
			// The LLC's read is started and then dropped from the adapter.
			s.hier.LLC.Access(0x6000, false, ev.Token{})
			s.events.fireDue(s.hier.LLC.Config().Latency, s)
			s.adapter.pending = s.adapter.pending[:0]
		}, want("section 4: cache LLC: 1 outstanding misses, 0 fetches in flight to fill them")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(tc.preset, smallMix(t, "mcf"))
			cfg.TargetInsts = 10_000
			cfg.Channels = tc.channels
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			tc.inject(s)
			var buf bytes.Buffer
			if err := s.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			fresh, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			err = fresh.Restore(&buf)
			if tc.wantErr == nil {
				if err != nil {
					t.Fatalf("restore error = %v, want none", err)
				}
				return
			}
			msg := tc.wantErr(s)
			if err == nil {
				t.Errorf("restore accepted the snapshot, want an error containing %q", msg)
				fresh.RunSlice(100_000)
				return
			}
			if !strings.Contains(err.Error(), msg) {
				t.Errorf("restore error = %v, want it to contain %q", err, msg)
			}
		})
	}
}

// TestRestoreDerivesRequests checks that a memory request travels as
// what the run decided and that restore derives the rest from its
// address. A two-channel LISA-VILLA System holds a request of every
// record shape (requestRecords) and two buffered writes whose stored
// channel, location and hit decision disagree with their addresses:
// restored, the writes carry the channel and location their addresses
// decode to and no hit decision, and the System snapshots to the bytes
// it was restored from.
func TestRestoreDerivesRequests(t *testing.T) {
	cfg := DefaultConfig(LISAVilla, warmMix(t))
	cfg.Channels = 2
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	requestRecords(t, s)
	wrong := dram.Location{Bank: 3, Row: 77, Block: 9, CacheRow: true}
	for _, a := range []uint64{
		s.mapper.Encode(1, dram.Location{Row: 6000, Block: 2}),
		s.mapper.Encode(0, dram.Location{Group: 2, Row: 6001}),
	} {
		ch, _ := s.mapper.Decode(a)
		s.adapter.pending = append(s.adapter.pending, pendingReq{channel: 1 - ch,
			req: &memctrl.Request{Addr: a, Loc: wrong, IsWrite: true, ServiceLoc: wrong, CacheHit: true}})
	}
	var snap, again bytes.Buffer
	if err := s.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	fresh, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Restore(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	if len(fresh.adapter.pending) != len(s.adapter.pending) {
		t.Fatalf("restored %d buffered requests, want %d", len(fresh.adapter.pending), len(s.adapter.pending))
	}
	for i, p := range fresh.adapter.pending {
		orig := s.adapter.pending[i].req
		ch, loc := s.mapper.Decode(orig.Addr)
		if want := (memctrl.Request{Addr: orig.Addr, Loc: loc, IsWrite: orig.IsWrite}); p.channel != ch || *p.req != want {
			t.Errorf("buffered request %d: restored on channel %d as %+v, want channel %d and %+v", i, p.channel, *p.req, ch, want)
		}
	}
	if err := fresh.Snapshot(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), snap.Bytes()) {
		t.Errorf("the restored System snapshots other bytes, first difference at byte %d", firstDiff(again.Bytes(), snap.Bytes()))
	}
}

// withSection returns the snapshot snap with section tag's payload
// replaced by payload.
func withSection(snap []byte, tag uint32, payload []byte) []byte {
	out := bytes.Clone(snap[:fgss.HeaderSize])
	for b := snap[fgss.HeaderSize:]; len(b) > 0; {
		t, n := binary.LittleEndian.Uint32(b), binary.LittleEndian.Uint32(b[4:])
		p := b[8 : 8+n]
		if t == tag {
			p = payload
		}
		out = binary.LittleEndian.AppendUint32(out, t)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(p)))
		out = append(out, p...)
		b = b[8+n:]
	}
	return out
}

// sectionOf returns the payload of section tag in the snapshot snap.
func sectionOf(t *testing.T, snap []byte, tag uint32) []byte {
	t.Helper()
	for b := snap[fgss.HeaderSize:]; len(b) > 0; {
		got, n := binary.LittleEndian.Uint32(b), binary.LittleEndian.Uint32(b[4:])
		if got == tag {
			return b[8 : 8+n]
		}
		b = b[8+n:]
	}
	t.Fatalf("snapshot has no section %d", tag)
	return nil
}

// TestRestoreRejectsUnrunnablePlans checks that a hooks section holding
// a relocation plan — a queued insertion — that the hook's Insert could
// not have queued is refused at restore, with an error naming the
// section: its location outside its bank or the channel, its segment
// (FIGCache) or source row (LISA-VILLA) already cached or queued, its
// slot or cache row out of range, valid or reserved, a LISA-VILLA
// write-back row outside the bank, or any plan where the System has no
// in-DRAM cache. Before its snapshot, each System caches row 1000
// segment 0 of bank 0 through its hook (FIGCache slot 0, LISA-VILLA
// cache row 0); the test then writes bank 0's queue by hand in place of
// the snapshot's empty queues, which end the hook's encoding. A
// well-formed queue restores, and the resumed run flushes it, so the
// controller rebuilt its mask of banks with queued insertions from the
// hook; a restore that accepts a malformed one is run for a while, to
// show the failure the rejection prevents.
func TestRestoreRejectsUnrunnablePlans(t *testing.T) {
	// plan is one hand-written queued insertion of bank 0: FIGCache
	// writes wb != 0 as its write-back bit, LISA-VILLA wb as the victim's
	// source row (-1 for none).
	type plan struct {
		loc      dram.Location
		slot, wb int
	}
	at := func(row, block int) dram.Location { return dram.Location{Row: row, Block: block} }
	const sec = "section 6: core: "
	cases := []struct {
		name    string
		preset  Preset
		plans   []plan
		wantErr string
	}{
		{"FIGCache plan", FIGCacheFast, []plan{{at(5, 0), 1, 0}, {at(6, 16), 2, 1}}, ""},
		{"LISA-VILLA plan", LISAVilla, []plan{{at(5, 0), 1, -1}, {at(6, 9), 2, 20}}, ""},
		{"FIGCache commit bank", FIGCacheFast, []plan{{dram.Location{Bank: 1, Row: 5}, 1, 0}},
			sec + "FIGCache bank 0 queued insertion 0: location r0.g0.b1.row5.blk0 lies outside the bank"},
		{"FIGCache location outside the channel", FIGCacheFast, []plan{{dram.Location{Group: 7, Row: 5}, 1, 0}},
			sec + "FIGCache bank 0 queued insertion 0: location r0.g7.b0.row5.blk0 lies outside the bank"},
		{"FIGCache row past the bank", FIGCacheFast, []plan{{at(32768, 0), 1, 0}},
			sec + "FIGCache bank 0 queued insertion 0: location r0.g0.b0.row32768.blk0 lies outside the bank"},
		{"FIGCache commit slot", FIGCacheFast, []plan{{at(5, 0), 512, 0}},
			sec + "FIGCache bank 0 queued insertion 0: slot 512 is outside the store's 512"},
		{"FIGCache negative slot", FIGCacheFast, []plan{{at(5, 0), -1, 0}},
			sec + "FIGCache bank 0 queued insertion 0: slot -1 is outside the store's 512"},
		{"FIGCache segment already cached", FIGCacheFast, []plan{{at(1000, 3), 7, 0}},
			sec + "FIGCache bank 0 queued insertion 0: row 1000 segment 0 is already cached"},
		{"FIGCache segment already queued", FIGCacheFast, []plan{{at(5, 0), 1, 0}, {at(5, 15), 2, 0}},
			sec + "FIGCache bank 0 queued insertion 1: row 5 segment 0 is already queued"},
		{"FIGCache slot holds a valid segment", FIGCacheFast, []plan{{at(5, 0), 0, 0}},
			sec + "FIGCache bank 0 queued insertion 0: slot 0 holds a valid segment"},
		{"FIGCache slot already reserved", FIGCacheFast, []plan{{at(5, 0), 1, 0}, {at(6, 0), 1, 0}},
			sec + "FIGCache bank 0 queued insertion 1: slot 1 is already reserved"},
		{"LISA-VILLA commit bank", LISAVilla, []plan{{dram.Location{Bank: 2, Row: 5}, 1, -1}},
			sec + "LISA-VILLA bank 0 queued insertion 0: location r0.g0.b2.row5.blk0 lies outside the bank"},
		{"LISA-VILLA commit row", LISAVilla, []plan{{at(5, 0), -1, -1}},
			sec + "LISA-VILLA bank 0 queued insertion 0: cache row -1 is outside the bank's 512"},
		{"LISA-VILLA cache row past the bank", LISAVilla, []plan{{at(5, 0), 512, -1}},
			sec + "LISA-VILLA bank 0 queued insertion 0: cache row 512 is outside the bank's 512"},
		{"LISA-VILLA row already cached", LISAVilla, []plan{{at(1000, 0), 1, -1}},
			sec + "LISA-VILLA bank 0 queued insertion 0: source row 1000 is already cached"},
		{"LISA-VILLA row already queued", LISAVilla, []plan{{at(5, 0), 1, -1}, {at(5, 64), 2, -1}},
			sec + "LISA-VILLA bank 0 queued insertion 1: source row 5 is already queued"},
		{"LISA-VILLA cache row valid", LISAVilla, []plan{{at(5, 0), 0, -1}},
			sec + "LISA-VILLA bank 0 queued insertion 0: cache row 0 is valid"},
		{"LISA-VILLA cache row already reserved", LISAVilla, []plan{{at(5, 0), 1, -1}, {at(6, 0), 1, -1}},
			sec + "LISA-VILLA bank 0 queued insertion 1: cache row 1 is already reserved"},
		{"LISA-VILLA write-back row outside the bank", LISAVilla, []plan{{at(5, 0), 1, 32768}},
			sec + "LISA-VILLA bank 0 queued insertion 0: write-back row 32768 is outside the bank"},
		{"plan without an in-DRAM cache", Base, []plan{{at(5, 0), 1, 0}}, "section 6: sim: hook kind: 1, want 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(tc.preset, smallMix(t, "mcf"))
			cfg.TargetInsts = 10_000
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			banks := s.channels[0].NumBanks()
			writePlans := func(w *fgss.Writer) {
				w.Int(len(tc.plans))
				for _, p := range tc.plans {
					for _, v := range []int{p.loc.Rank, p.loc.Group, p.loc.Bank, p.loc.Row, p.loc.Block, p.slot} {
						w.Int(v)
					}
					if tc.preset == LISAVilla {
						w.Int(p.wb)
					} else {
						w.Bool(p.wb != 0)
					}
				}
				for range banks - 1 {
					w.Int(0)
				}
			}
			var payload []byte
			if h := s.hooks[0]; h == nil {
				payload = sectionPayload(t, func(w *fgss.Writer) {
					w.Int(1)
					w.Int(hookFIGCache)
					writePlans(w)
				})
			} else {
				if !h.Insert(at(1000, 0)) {
					t.Fatal("a fresh hook refused an insertion")
				}
				h.Flush(s.channels[0], 0)
				var snap bytes.Buffer
				if err := s.Snapshot(&snap); err != nil {
					t.Fatal(err)
				}
				hooks := sectionOf(t, snap.Bytes(), snapSecHooks)
				queues := hooks[len(hooks)-banks:]
				if !bytes.Equal(queues, make([]byte, banks)) {
					t.Fatalf("the hooks section ends in %x, not %d empty queues", queues, banks)
				}
				payload = append(bytes.Clone(hooks[:len(hooks)-banks]), sectionPayload(t, writePlans)...)
			}
			var snap bytes.Buffer
			if err := s.Snapshot(&snap); err != nil {
				t.Fatal(err)
			}
			fresh, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			err = fresh.Restore(bytes.NewReader(withSection(snap.Bytes(), snapSecHooks, payload)))
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("restore error = %v, want none", err)
				}
				fresh.RunSlice(100_000)
				for _, p := range tc.plans {
					if _, hit := fresh.hooks[0].Lookup(p.loc, false); !hit {
						t.Errorf("the resumed run never flushed the plan for %v", p.loc)
					}
				}
				return
			}
			if err == nil {
				t.Errorf("restore accepted the snapshot, want an error containing %q", tc.wantErr)
				fresh.RunSlice(100_000)
				return
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("restore error = %v, want it to contain %q", err, tc.wantErr)
			}
		})
	}
}

// sectionPayload returns the payload fill writes into one section.
func sectionPayload(t *testing.T, fill func(w *fgss.Writer)) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := fgss.NewWriter(&buf, 0, [32]byte{})
	w.Begin(1)
	fill(w)
	w.End()
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()[fgss.HeaderSize+8:]
}

// TestRestoreRejectsSectionShape replaces one section of a real
// snapshot with a hand-built one Snapshot never writes for the System —
// a count or kind that does not match it, a list entry it cannot hold,
// or lane events out of order or out of the lane's reach — and checks
// that restore refuses it, naming the section. The count and kind cases used to restore
// without error, because restore stopped decoding the section at the
// mismatch and the section ended there: with its controllers section
// emptied, a resumed mcf run never finished. Every emptied section is
// tried on Base, FIGCache-Fast and LISA-VILLA.
func TestRestoreRejectsSectionShape(t *testing.T) {
	ints := func(vs ...int) func(*System) func(*fgss.Writer) {
		return func(*System) func(*fgss.Writer) {
			return func(w *fgss.Writer) {
				for _, v := range vs {
					w.Int(v)
				}
			}
		}
	}
	// oneEvent writes an events section holding one memory-lane event
	// due at cycle 5, a CoreSlot token for slot 3 of core 0 once kind and
	// id are cast to their fields, and the other lanes empty.
	oneEvent := func(kind uint64, id int64) func(*System) func(*fgss.Writer) {
		return func(s *System) func(*fgss.Writer) {
			return func(w *fgss.Writer) {
				w.Int(len(s.events.lanes))
				w.Int(1)
				w.I64(5) // at
				w.U64(kind)
				w.I64(id)
				w.U64(3)
				for range s.events.lanes[1:] {
					w.Int(0)
				}
			}
		}
	}
	// memEvents writes an events section holding memory-lane events due
	// at the cycles ats, each the LLC's fill of block 0x40, and the other
	// lanes empty.
	memEvents := func(ats ...int64) func(*System) func(*fgss.Writer) {
		return func(s *System) func(*fgss.Writer) {
			return func(w *fgss.Writer) {
				w.Int(len(s.events.lanes))
				w.Int(len(ats))
				for _, at := range ats {
					w.I64(at)
					ev.WriteToken(w, ev.Token{Kind: ev.MSHRFill, ID: s.hier.LLC.NodeID(), Arg: 0x40})
				}
				for range s.events.lanes[1:] {
					w.Int(0)
				}
			}
		}
	}
	type tc struct {
		name    string
		preset  Preset
		tag     uint32
		fill    func(s *System) func(*fgss.Writer)
		wantErr func(s *System) string
	}
	want := func(msg string) func(*System) string { return func(*System) string { return msg } }
	var cases []tc
	for _, p := range []Preset{Base, FIGCacheFast, LISAVilla} {
		cases = append(cases,
			tc{"no cores", p, snapSecCores, ints(0), want("section 3: sim: cores: 0, want 1")},
			tc{"no cache nodes", p, snapSecCaches, ints(0), want("section 4: cache: nodes: 0, want 3")},
			tc{"no channels", p, snapSecChannels, ints(0), want("section 5: sim: channels: 0, want 1")},
			tc{"no controllers", p, snapSecCtrls, ints(0), want("section 7: sim: controllers: 0, want 1")},
			tc{"no hooks", p, snapSecHooks, ints(0), want("section 6: sim: hooks: 0, want 1")},
		)
	}
	cases = append(cases,
		tc{"FIGCache hook of kind none", FIGCacheFast, snapSecHooks, ints(1, hookNone), want("section 6: sim: hook kind: 0, want 1")},
		tc{"LISA-VILLA hook of kind none", LISAVilla, snapSecHooks, ints(1, hookNone), want("section 6: sim: hook kind: 0, want 2")},
		tc{"FIGCache with no banks", FIGCacheFast, snapSecHooks, ints(1, hookFIGCache, 0), want("section 6: core: FIGCache banks: 0, want 16")},
		tc{"no event lanes", Base, snapSecEvents, ints(0), func(s *System) string {
			return fmt.Sprintf("section 2: sim: event lanes: 0, want %d", len(s.events.lanes))
		}},
		tc{"negative event count", Base, snapSecEvents, func(s *System) func(*fgss.Writer) {
			return func(w *fgss.Writer) {
				w.Int(len(s.events.lanes))
				w.Int(-1)
			}
		}, want("section 2: sim: lane events: -1, outside")},
		tc{"event token kind 257", Base, snapSecEvents, oneEvent(257, 0), want("section 2: event token kind 257 or ID 0 does not fit its field")},
		tc{"event token ID 2^32", Base, snapSecEvents, oneEvent(uint64(ev.CoreSlot), 1<<32), want("section 2: event token kind 1 or ID 4294967296 does not fit its field")},
		tc{"buffered request on no channel", Base, snapSecAdapter, func(s *System) func(*fgss.Writer) {
			return func(w *fgss.Writer) {
				w.Int(1)
				w.U64(uint64(s.mapper.TotalBytes()))
				w.Bool(true)
			}
		}, func(s *System) string {
			return fmt.Sprintf("section 8: memctrl: request %#x is not a block of the", s.mapper.TotalBytes())
		}},
		tc{"lane due times decrease", Base, snapSecEvents, memEvents(9, 5),
			want("section 2: sim: lane 0 event 1 due at cycle 5, before its predecessor at cycle 9")},
		tc{"event due before the clock", Base, snapSecEvents, memEvents(-1),
			want("section 2: sim: lane 0 event 0 due at cycle -1, before the clock 0")},
		tc{"event due past the lane's delay", Base, snapSecEvents, memEvents(5, 61),
			want("section 2: sim: lane 0 event 1 due at cycle 61, more than the lane's delay 60 after the clock 0")},
	)
	snaps := map[Preset][]byte{}
	for _, tc := range cases {
		t.Run(tc.preset.String()+"/"+tc.name, func(t *testing.T) {
			cfg := DefaultConfig(tc.preset, smallMix(t, "mcf"))
			cfg.TargetInsts = 10_000
			// A fresh System's snapshot: no event names a miss that an
			// emptied caches section would drop.
			if snaps[tc.preset] == nil {
				_, snaps[tc.preset] = snapshotAt(t, cfg, 0)
			}
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			payload := sectionPayload(t, tc.fill(s))
			err = s.Restore(bytes.NewReader(withSection(snaps[tc.preset], tc.tag, payload)))
			if want := tc.wantErr(s); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("restore error = %v, want one containing %q", err, want)
			}
		})
	}
}
