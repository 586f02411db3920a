package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"scap/internal/event"
	"scap/internal/flowtab"
	"scap/internal/mem"
	"scap/internal/metrics"
	"scap/internal/nic"
	"scap/internal/pkt"
	"scap/internal/reassembly"
	"scap/internal/streamscope"
)

// mixedTrace interleaves TCP sessions (handshake, in-order data, one swapped
// pair and one retransmission each, FIN or RST), UDP flows, one session that
// runs past the cutoff, and two undecodable frames — every engine path that
// touches the burst-local accounting.
func mixedTrace(seed int64) [][]byte {
	r := rand.New(rand.NewSource(seed))
	var lanes [][][]byte
	for i := 0; i < 24; i++ {
		ss := newSession(uint16(40000+i), 80)
		lane := [][]byte{ss.syn(), ss.synack()}
		n := 4 + r.Intn(12)
		if i == 5 {
			n = 40 // past the 8 KiB cutoff
		}
		for j := 0; j < n; j++ {
			pay := bytes.Repeat([]byte{byte('a' + (i+j)%26)}, 100+r.Intn(400))
			lane = append(lane, ss.data(pay))
			if j%3 == 1 {
				lane = append(lane, ss.srvData(pay[:50]))
			}
		}
		// One reordered pair and one duplicate per session.
		lane[2], lane[3] = lane[3], lane[2]
		lane = append(lane, lane[len(lane)-1])
		if i%4 == 0 {
			lane = append(lane, ss.rst())
		} else {
			lane = append(lane, ss.fin(), ss.srvFin())
		}
		lanes = append(lanes, lane)
	}
	for i := 0; i < 6; i++ {
		key := pkt.FlowKey{SrcIP: pkt.MustAddr("10.1.0.1"), DstIP: pkt.MustAddr("10.2.0.2"),
			SrcPort: uint16(5000 + i), DstPort: 53, Proto: pkt.ProtoUDP}
		var lane [][]byte
		for j := 0; j < 5; j++ {
			lane = append(lane, pkt.BuildUDP(pkt.UDPSpec{Key: key, Payload: bytes.Repeat([]byte{'u'}, 60+j)}))
		}
		lanes = append(lanes, lane)
	}
	lanes = append(lanes, [][]byte{{1, 2, 3}, make([]byte, 20)})
	var out [][]byte
	for len(lanes) > 0 {
		i := r.Intn(len(lanes))
		out = append(out, lanes[i][0])
		if lanes[i] = lanes[i][1:]; len(lanes[i]) == 0 {
			lanes = append(lanes[:i], lanes[i+1:]...)
		}
	}
	return out
}

// consume drains q the way a worker does — dispatching from the ring's
// slots, then returning each chunk's charge and block — calling visit (if
// non-nil) on every event while it is still in its slot.
func consume(q *event.Queue, mm *mem.Manager, visit func(*event.Event)) {
	for {
		v := q.View(64)
		if len(v) == 0 {
			return
		}
		for i := range v {
			if visit != nil {
				visit(&v[i])
			}
			if v[i].Accounted > 0 {
				mm.Release(v[i].Accounted)
			}
			mm.ReturnBlock(0, v[i].Block)
		}
		q.Release(len(v))
	}
}

// evSummary is what a consumer can observe of one event, copied out of the
// ring slot.
type evSummary struct {
	Type event.Type
	Info flowtab.Info
	Data string
	Hole bool
	Last bool
	Acct int
}

type burstRun struct {
	stats  Stats
	used   int64
	events []evSummary
	hists  map[string]uint64
}

// runBursts feeds trace to a fresh engine in bursts of n frames, draining and
// releasing after each burst the way a worker would, and returns everything
// observable from outside.
func runBursts(t *testing.T, trace [][]byte, n int) burstRun {
	t.Helper()
	reg := metrics.NewRegistry(1)
	mm := mem.New(mem.Config{Size: 64 << 20})
	defer mm.Close()
	q := event.NewQueue(1 << 14)
	e := NewEngine(Options{
		Config:  Config{Cutoff: 8 << 10, ChunkSize: 1024},
		Mem:     mm,
		Queue:   q,
		Rand:    rand.New(rand.NewSource(42)),
		Metrics: NewMetrics(reg),
	})
	var out burstRun
	drain := func() {
		consume(q, mm, func(ev *event.Event) {
			out.events = append(out.events, evSummary{ev.Type, ev.Info, string(ev.Data), ev.HoleBefore, ev.Last, ev.Accounted})
		})
	}
	var ts int64
	batch := make([]nic.Frame, 0, n)
	for i := 0; i < len(trace); i += n {
		batch = batch[:0]
		for _, f := range trace[i:min(i+n, len(trace))] {
			ts += 1000
			batch = append(batch, nic.Frame{Data: f, TS: ts, Ingest: 1})
		}
		e.HandleFrames(batch)
		drain()
	}
	e.Shutdown()
	drain()
	out.stats = e.Stats()
	out.used = mm.Used()
	out.hists = make(map[string]uint64)
	for _, h := range reg.Snapshot().Histograms {
		out.hists[h.Name] = h.Count
	}
	return out
}

// TestBurstSizeDoesNotChangeResults: the same mixed trace fed as bursts of 1,
// 7 and 64 frames gives identical counters, memory accounting, histogram
// counts and event sequence — burst-local accounting changes when numbers
// are published, never what they are.
func TestBurstSizeDoesNotChangeResults(t *testing.T) {
	trace := mixedTrace(3)
	ref := runBursts(t, trace, 1)
	if ref.stats.Frames != uint64(len(trace)) || ref.stats.DecodeErrors != 2 {
		t.Fatalf("reference run: %d frames, %d decode errors; want %d and 2", ref.stats.Frames, ref.stats.DecodeErrors, len(trace))
	}
	if ref.stats.CutoffPkts == 0 || ref.stats.AsmOutOfOrder == 0 || ref.stats.AsmDuplicateBytes == 0 {
		t.Fatalf("trace does not exercise cutoff/reorder/duplicates: %+v", ref.stats)
	}
	if ref.used != 0 {
		t.Fatalf("reference run left %d bytes reserved", ref.used)
	}
	if got := ref.hists["stage_ingest_engine_ns"]; got != uint64(len(trace)) {
		t.Fatalf("ingest histogram count = %d, want one per frame (%d)", got, len(trace))
	}
	for _, n := range []int{7, 64} {
		got := runBursts(t, trace, n)
		if got.stats != ref.stats {
			t.Errorf("burst %d: stats differ\n got %+v\nwant %+v", n, got.stats, ref.stats)
		}
		if got.used != ref.used {
			t.Errorf("burst %d: %d bytes reserved at the end, want %d", n, got.used, ref.used)
		}
		for _, name := range []string{"stage_ingest_engine_ns", "chunk_bytes"} {
			if got.hists[name] != ref.hists[name] {
				t.Errorf("burst %d: histogram %s count = %d, want %d", n, name, got.hists[name], ref.hists[name])
			}
		}
		if len(got.events) != len(ref.events) {
			t.Fatalf("burst %d: %d events, want %d", n, len(got.events), len(ref.events))
		}
		for i := range got.events {
			if !reflect.DeepEqual(got.events[i], ref.events[i]) {
				t.Fatalf("burst %d: event %d differs\n got %+v\nwant %+v", n, i, got.events[i], ref.events[i])
			}
		}
	}
}

// TestStatsExactAfterEveryEntryPoint: nothing stays unpublished once a
// public entry point has returned — Stats and the memory manager agree with
// an independent count after each of them.
func TestStatsExactAfterEveryEntryPoint(t *testing.T) {
	mm := mem.New(mem.Config{Size: 64 << 20})
	defer mm.Close()
	q := event.NewQueue(1 << 14)
	e := NewEngine(Options{Config: Config{Cutoff: CutoffUnlimited, ChunkSize: 1 << 16}, Mem: mm, Queue: q})
	var frames, packets, payload uint64
	check := func(where string) {
		t.Helper()
		if e.pend != (burstAcct{}) {
			t.Fatalf("%s returned with unpublished accounting: %+v", where, e.pend)
		}
		st := e.Stats()
		if st.Frames != frames || st.Packets != packets || st.PayloadBytes != payload || st.StoredBytes != payload {
			t.Fatalf("after %s: frames %d packets %d payload %d stored %d; want %d %d %d %d",
				where, st.Frames, st.Packets, st.PayloadBytes, st.StoredBytes, frames, packets, payload, payload)
		}
		// Nothing is drained, so every stored byte is still reserved.
		if mm.Used() != int64(payload) {
			t.Fatalf("after %s: %d bytes reserved, want %d", where, mm.Used(), payload)
		}
	}
	ss := newSession(41000, 80)
	var ts int64
	frame := func(f []byte, n int) nic.Frame {
		ts += 1000
		frames, packets, payload = frames+1, packets+1, payload+uint64(n)
		return nic.Frame{Data: f, TS: ts}
	}

	f := frame(ss.syn(), 0)
	e.HandleFrame(f.Data, f.TS)
	check("HandleFrame")

	burst := []nic.Frame{frame(ss.synack(), 0), frame(ss.data(make([]byte, 300)), 300), frame(ss.data(make([]byte, 200)), 200)}
	e.HandleFrames(burst)
	check("HandleFrames")

	var p pkt.Packet
	if err := pkt.Decode(ss.data(make([]byte, 100)), &p); err != nil {
		t.Fatal(err)
	}
	ts += 1000
	p.Timestamp = ts
	packets, payload = packets+1, payload+100
	e.HandlePacket(&p)
	check("HandlePacket")

	e.CheckTimers(ts + 1)
	check("CheckTimers")
	e.DrainControls()
	check("DrainControls")
	e.Shutdown()
	check("Shutdown")
}

// flightOverflows returns the Value of every ring-overflow flight record.
func flightOverflows(reg *metrics.Registry) []int64 {
	var out []int64
	for _, r := range reg.Flight().Snapshot() {
		if r.Kind == metrics.FlightRingOverflow {
			out = append(out, r.Value)
		}
	}
	return out
}

// TestOverflowDecidedAtReserveKeepsContract: with loss decided when the slot
// is claimed instead of when the batch is flushed, a full ring still yields
// eventsLost/eventsLostBytes, the refused chunks' charge and blocks come
// back, Queue.Dropped counts the same events, and each flush reports its
// losses as ONE overflow record carrying the count.
func TestOverflowDecidedAtReserveKeepsContract(t *testing.T) {
	reg := metrics.NewRegistry(1)
	mm := mem.New(mem.Config{Size: 64 << 20})
	defer mm.Close()
	q := event.NewQueue(4)
	e := NewEngine(Options{Config: Config{Cutoff: CutoffUnlimited, ChunkSize: 256}, Mem: mm, Queue: q, Metrics: NewMetrics(reg)})
	ss := newSession(45100, 80)
	var ts int64
	burst := func(frames ...[]byte) {
		b := make([]nic.Frame, len(frames))
		for i, f := range frames {
			ts += 1000
			b[i] = nic.Frame{Data: f, TS: ts}
		}
		e.HandleFrames(b)
	}
	// Creation ×2 fill half the ring; the burst of ten full chunks then
	// finds two free slots and loses eight events in one flush.
	burst(ss.syn(), ss.synack())
	var datas [][]byte
	for i := 0; i < 10; i++ {
		datas = append(datas, ss.data(bytes.Repeat([]byte{'q'}, 256)))
	}
	burst(datas...)
	st := e.Stats()
	if st.EventsLost != 8 || st.EventsLostBytes != 8*256 {
		t.Fatalf("lost %d events / %d bytes, want 8 / 2048", st.EventsLost, st.EventsLostBytes)
	}
	if q.Dropped() != st.EventsLost {
		t.Fatalf("Queue.Dropped = %d, engine lost %d", q.Dropped(), st.EventsLost)
	}
	if got := flightOverflows(reg); !reflect.DeepEqual(got, []int64{8}) {
		t.Fatalf("overflow records = %v, want exactly one carrying 8", got)
	}
	// The two chunks in the ring are the only memory still charged.
	if mm.Used() != 2*256 {
		t.Fatalf("%d bytes reserved with two chunks in flight, want 512", mm.Used())
	}
	// A second overflowing flush adds one more record, not one per event.
	burst(ss.data(bytes.Repeat([]byte{'r'}, 256)), ss.data(bytes.Repeat([]byte{'r'}, 256)), ss.fin(), ss.srvFin())
	if got := flightOverflows(reg); len(got) != 2 || got[1] != int64(e.Stats().EventsLost)-8 {
		t.Fatalf("overflow records = %v after a second lossy flush (lost %d in total)", got, e.Stats().EventsLost)
	}
	if q.Dropped() != e.Stats().EventsLost {
		t.Fatalf("Queue.Dropped = %d, engine lost %d", q.Dropped(), e.Stats().EventsLost)
	}
	consume(q, mm, nil)
	if mm.Used() != 0 {
		t.Fatalf("memory leak after overflow: %d bytes", mm.Used())
	}
	if f := mm.ArenaUsedFraction(); f != 0 {
		t.Fatalf("arena blocks leaked after overflow: used fraction %g", f)
	}
}

// pplRun feeds frames under a tight budget without draining (so memory only
// grows) and returns the engine counters plus each data frame's fate as seen
// in its stream's drop counter.
func pplRun(t *testing.T, frames [][]byte, burst int) (Stats, mem.Stats, []flowtab.Stats) {
	t.Helper()
	mm := mem.New(mem.Config{Size: 16 << 10, BaseThreshold: 0.5, Priorities: 2, BlockSize: 1024})
	defer mm.Close()
	e := NewEngine(Options{
		Config: Config{Cutoff: CutoffUnlimited, Priorities: 2, ChunkSize: 1 << 20},
		Mem:    mm, Queue: event.NewQueue(1 << 10), Rand: rand.New(rand.NewSource(7)),
	})
	var ts int64
	for i := 0; i < len(frames); i += burst {
		var b []nic.Frame
		for _, f := range frames[i:min(i+burst, len(frames))] {
			ts += 1000
			b = append(b, nic.Frame{Data: f, TS: ts})
		}
		e.HandleFrames(b)
	}
	var per []flowtab.Stats
	e.Table().Walk(func(s *flowtab.Stream) bool {
		per = append(per, s.Stats)
		return true
	})
	return e.Stats(), mm.Stats(), per
}

// TestPPLSameForBurstAndSingleFrames: a 64-frame burst that crosses the
// watermark midway admits exactly the packets that 64 single-frame calls
// admit — Decide sees the manager's count plus the engine's unpublished
// bytes.
func TestPPLSameForBurstAndSingleFrames(t *testing.T) {
	a, b := newSession(42100, 80), newSession(42101, 80)
	frames := [][]byte{a.syn(), a.synack(), b.syn(), b.synack()}
	for i := 0; i < 30; i++ {
		frames = append(frames, a.data(bytes.Repeat([]byte{'A'}, 300+i)), b.data(bytes.Repeat([]byte{'B'}, 200+i)))
	}
	st1, ms1, per1 := pplRun(t, frames, 1)
	if st1.PPLDroppedPkts == 0 || st1.StoredBytes == 0 {
		t.Fatalf("single-frame run never reached the watermark: %+v", st1)
	}
	st64, ms64, per64 := pplRun(t, frames, 64)
	if st64 != st1 {
		t.Errorf("engine stats differ\nburst  %+v\nsingle %+v", st64, st1)
	}
	if ms64 != ms1 {
		t.Errorf("manager stats differ\nburst  %+v\nsingle %+v", ms64, ms1)
	}
	if !reflect.DeepEqual(per64, per1) {
		t.Errorf("per-stream stats differ\nburst  %+v\nsingle %+v", per64, per1)
	}
}

// TestUsedNeverNegativeWithinBurst runs an engine against a concurrent
// consumer that releases chunks, hands some back through the control queue
// after their stream is gone (a stale KeepChunk: the engine releases them),
// discards streams mid-flight, and — with a small ring — lets events be lost
// in the very burst that stored their bytes. mem.Release panics if used
// dips below zero; a sampler watches from outside as well, and at the end
// every byte and block is back.
func TestUsedNeverNegativeWithinBurst(t *testing.T) {
	mm := mem.New(mem.Config{Size: 64 << 20})
	defer mm.Close()
	q := event.NewQueue(32)
	e := NewEngine(Options{Config: Config{Cutoff: CutoffUnlimited, ChunkSize: 128}, Mem: mm, Queue: q})

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // sampler
		defer wg.Done()
		for !stop.Load() {
			if u := mm.Used(); u < 0 {
				t.Errorf("Used = %d, went negative", u)
				return
			}
		}
	}()
	go func() { // consumer
		defer wg.Done()
		r := rand.New(rand.NewSource(9))
		for {
			v, ok := q.WaitView(16)
			if !ok {
				return
			}
			for i := range v {
				ev := &v[i]
				if ev.Type != event.Data {
					continue
				}
				switch r.Intn(4) {
				case 0:
					// Hand the chunk back under a stale ID: the engine must
					// release the charge and the block itself.
					e.Control(Ctrl{Op: OpKeepChunk, Stream: ev.Stream, ID: ev.Info.ID + 1<<40,
						Data: ev.Data, Block: ev.Block, Accounted: ev.Accounted})
					continue
				case 1:
					e.Control(Ctrl{Op: OpDiscard, Stream: ev.Stream, ID: ev.Info.ID})
				}
				if ev.Accounted > 0 {
					mm.Release(ev.Accounted)
				}
				mm.ReturnBlock(0, ev.Block)
			}
			q.Release(len(v))
		}
	}()

	r := rand.New(rand.NewSource(4))
	var ts int64
	for round := 0; round < 300; round++ {
		ss := newSession(uint16(20000+round), 80)
		frames := [][]byte{ss.syn(), ss.synack()}
		for i := 0; i < 60; i++ {
			frames = append(frames, ss.data(bytes.Repeat([]byte{'z'}, 64+r.Intn(128))))
		}
		frames = append(frames, ss.fin(), ss.srvFin())
		b := make([]nic.Frame, len(frames))
		for i, f := range frames {
			ts += 1000
			b[i] = nic.Frame{Data: f, TS: ts}
		}
		e.HandleFrames(b)
	}
	e.Shutdown()
	q.Close()
	stop.Store(true)
	wg.Wait()
	e.DrainControls()
	if e.Stats().EventsLost == 0 {
		t.Log("note: the ring never overflowed in this run")
	}
	if mm.Used() != 0 {
		t.Fatalf("%d bytes still reserved at the end", mm.Used())
	}
	if f := mm.ArenaUsedFraction(); f != 0 {
		t.Fatalf("arena blocks leaked: used fraction %g", f)
	}
}

// TestRecycledStreamStateCarriesNothingOver poisons every field a stream can
// set on its extension and its assembler — discard and final-delivery marks,
// the delivered-chunk count, a doubled filter timeout, a journal binding,
// strict mode with a last-wins policy, flags, counters and buffered
// out-of-order segments — retires it, and checks that the next streams, which
// land on the recycled objects, start exactly like streams on fresh ones;
// and that a UDP stream on a reused record has no assembler at all.
func TestRecycledStreamStateCarriesNothingOver(t *testing.T) {
	h := newHarnessOpts(Options{
		Config: Config{Cutoff: CutoffUnlimited, ChunkSize: 64, Mode: reassembly.ModeStrict,
			PolicyRules: []PolicyRule{{Prefix: netip.MustParsePrefix("172.16.0.0/16"), Policy: reassembly.PolicyLast}}},
		Scope: streamscope.New(streamscope.Options{Cores: 1, SampleEvery: 1}),
	})
	ss := newSession(43000, 80)
	h.feed(ss.syn(), ss.synack(), ss.data(bytes.Repeat([]byte{'p'}, 100)))
	// Leave a hole and buffer two overlapping segments beyond it.
	ss.seq += 50
	far := ss.data(bytes.Repeat([]byte{'x'}, 40))
	ss.seq -= 20
	h.feed(far, ss.data(bytes.Repeat([]byte{'y'}, 40)))
	s := h.e.Table().Lookup(ss.key)
	x := ext(s)
	if _, newWins := s.Asm.Overlaps(); s.Asm.PendingBytes() == 0 || newWins == 0 || x.chunksDelivered == 0 || x.j == nil {
		t.Fatalf("poisoning did not take: pending %d new-wins %d chunks %d journal %v",
			s.Asm.PendingBytes(), newWins, x.chunksDelivered, x.j != nil)
	}
	x.discard, x.finalDelivered, x.filterTimeout, x.jFirst = true, true, 12345, true
	oldExt, oldAsm := x, s.Asm
	h.feed(ss.rst())
	if h.e.Table().Lookup(ss.key) != nil {
		t.Fatal("stream survived its RST")
	}
	// The first slab lost two of each to the connection; both are back.
	if len(h.e.freeExt) != stateSlab || len(h.e.freeAsm) != stateSlab {
		t.Fatalf("%d extensions and %d assemblers parked, want the whole slab (%d) once both directions retired", len(h.e.freeExt), len(h.e.freeAsm), stateSlab)
	}
	for _, fx := range h.e.freeExt {
		if !reflect.DeepEqual(*fx, streamExt{}) {
			t.Fatalf("parked extension is not zero: %+v", *fx)
		}
	}

	// A new connection to a host under a different policy takes both
	// parked pairs: each direction must look like a stream built from
	// scratch.
	other := newSession(43001, 80)
	other.key.DstIP = pkt.MustAddr("192.168.9.9")
	h.feed(other.syn(), other.synack())
	cli := h.e.Table().Lookup(other.key)
	srv := cli.Opposite
	if ext(cli) != oldExt && ext(srv) != oldExt {
		t.Fatal("the poisoned extension was not recycled")
	}
	if cli.Asm != oldAsm && srv.Asm != oldAsm {
		t.Fatal("the poisoned assembler was not recycled")
	}
	if len(h.e.freeExt) != stateSlab-2 || len(h.e.freeAsm) != stateSlab-2 {
		t.Fatalf("free lists hold %d extensions and %d assemblers after a new connection, want %d", len(h.e.freeExt), len(h.e.freeAsm), stateSlab-2)
	}
	for _, c := range []struct {
		s    *flowtab.Stream
		next uint32
	}{{cli, other.seq}, {srv, other.ackSeq}} {
		a, nx := c.s.Asm, ext(c.s)
		if a.PendingBytes() != 0 || a.Flags() != 0 || a.Stats() != (reassembly.Stats{}) || !a.Initialized() || a.NextSeq() != c.next {
			t.Fatalf("recycled assembler carried state over: pending %d flags %v stats %+v next %d (want %d)",
				a.PendingBytes(), a.Flags(), a.Stats(), a.NextSeq(), c.next)
		}
		if nx.j == nil || nx.j.Gen() != nx.jGen {
			t.Fatal("recycled extension is not bound to a live journal of its own")
		}
		if want := (streamExt{filterTimeout: h.e.cfg.InactivityTimeout, j: nx.j, jGen: nx.jGen}); !reflect.DeepEqual(*nx, want) {
			t.Fatalf("recycled extension carried state over:\n got %+v\nwant %+v", *nx, want)
		}
	}
	// Policy comes from the new stream's configuration, not the old one:
	// 192.168.9.9 falls under the default first-wins policy, so a segment
	// overlapping a buffered one loses.
	h.feed(other.data([]byte("0123456789")))
	other.seq += 10
	h.feed(other.data([]byte("KLMNOPQRST")))
	other.seq -= 15
	h.feed(other.data([]byte("abcdefghijklmno")))
	if oldWins, newWins := cli.Asm.Overlaps(); oldWins != 10 || newWins != 0 {
		t.Fatalf("overlap resolved with the previous stream's policy: old-wins %d new-wins %d", oldWins, newWins)
	}

	// A UDP stream on a reused record sees no assembler and leaves the
	// parked ones alone.
	h.feed(other.rst())
	parked, parkedExt := len(h.e.freeAsm), len(h.e.freeExt)
	ukey := pkt.FlowKey{SrcIP: pkt.MustAddr("10.9.0.1"), DstIP: pkt.MustAddr("10.9.0.2"), SrcPort: 7, DstPort: 9, Proto: pkt.ProtoUDP}
	h.feed(pkt.BuildUDP(pkt.UDPSpec{Key: ukey, Payload: []byte("datagram")}))
	us := h.e.Table().Lookup(ukey)
	if us == nil || us.Asm != nil {
		t.Fatalf("UDP stream on a reused record: %+v", us)
	}
	if len(h.e.freeAsm) != parked || len(h.e.freeExt) != parkedExt-1 {
		t.Fatalf("after a UDP stream: %d assemblers parked (want %d), %d extensions (want %d)", len(h.e.freeAsm), parked, len(h.e.freeExt), parkedExt-1)
	}
	if got := string(h.dataFor(us.ID)); got != "" {
		t.Fatalf("UDP stream delivered %q before its chunk filled", got)
	}
}

// TestStreamsCostNoHeapObjectAfterWarmup: once the free lists are primed, a
// create/finish cycle allocates neither an extension nor an assembler; and a
// cold engine pays for them a slab at a time, not per stream.
func TestStreamsCostNoHeapObjectAfterWarmup(t *testing.T) {
	mm := mem.New(mem.Config{Size: 64 << 20})
	defer mm.Close()
	q := event.NewQueue(1 << 10)
	e := NewEngine(Options{Config: Config{Cutoff: CutoffUnlimited}, Mem: mm, Queue: q})
	var frames [][]byte
	for i := 0; i < 8; i++ {
		ss := newSession(uint16(30000+i), 80)
		frames = append(frames, ss.syn(), ss.synack(), ss.data([]byte(fmt.Sprint("hello ", i))), ss.fin(), ss.srvFin())
	}
	var ts int64
	cycle := func() {
		for _, f := range frames {
			ts += 1000
			e.HandleFrame(f, ts)
			consume(q, mm, nil)
		}
	}
	cycle()
	if avg := testing.AllocsPerRun(20, cycle); avg != 0 {
		t.Fatalf("%.2f allocations per 16-stream cycle after warm-up, want 0", avg)
	}
	// Cold: 200 connections opened and none closed take 400 of each.
	for i := 0; i < 200; i++ {
		ss := newSession(uint16(31000+i), 80)
		ts += 1000
		e.HandleFrame(ss.syn(), ts)
		ts += 1000
		e.HandleFrame(ss.synack(), ts)
		consume(q, mm, nil)
	}
	if held := 400 + len(e.freeExt); held%stateSlab != 0 || held > 400+stateSlab {
		t.Fatalf("400 live streams and %d parked extensions: not whole slabs, or more than one slab of slack", len(e.freeExt))
	}
}
