package streamscope

import (
	"encoding/json"
	"net/netip"
	"os"
	"testing"

	"scap/internal/pkt"
)

func testKey() pkt.FlowKey {
	return pkt.FlowKey{
		SrcIP:   netip.MustParseAddr("10.0.0.1"),
		DstIP:   netip.MustParseAddr("10.0.0.2"),
		SrcPort: 40000,
		DstPort: 80,
		Proto:   pkt.ProtoTCP,
	}
}

func testScope(t *testing.T) *Scope {
	t.Helper()
	now := func() int64 { return 12345 }
	return New(Options{Cores: 2, JournalsPerCore: 8, SampleEvery: 4, Now: &now})
}

func TestAcquireNoteSnapshot(t *testing.T) {
	s := testScope(t)
	j, gen := s.Acquire(0, Binding{
		ID: 7, Key: testKey(), Dir: 1, Priority: 2, Created: 100, Sampled: true,
	})
	if gen == 0 || gen&1 == 1 {
		t.Fatalf("Acquire returned gen %d, want even nonzero", gen)
	}
	if j.Gen() != gen {
		t.Fatalf("Gen() = %d, want %d", j.Gen(), gen)
	}
	j.Note(EvCreated, 100, 2, 1<<20)
	j.Note(EvFirstPayload, 150, 1460, 0)
	j.NoteAnomaly(AnomCutoff, EvCutoff, 900, 1<<20, 5<<20)

	snaps := s.Snapshot()
	if len(snaps) != 1 {
		t.Fatalf("Snapshot() returned %d journals, want 1", len(snaps))
	}
	js := snaps[0]
	if js.StreamID != 7 || !js.Sampled || js.Priority != 2 || js.Dir != 1 {
		t.Fatalf("identity mismatch: %+v", js)
	}
	if js.Key != testKey().String() {
		t.Fatalf("Key = %q, want %q", js.Key, testKey().String())
	}
	if js.AnomalyMask != AnomCutoff || len(js.Anomalies) != 1 || js.Anomalies[0] != "cutoff" {
		t.Fatalf("anomaly mismatch: mask=%d names=%v", js.AnomalyMask, js.Anomalies)
	}
	if len(js.Events) != 3 {
		t.Fatalf("got %d events, want 3", len(js.Events))
	}
	wantKinds := []EventKind{EvCreated, EvFirstPayload, EvCutoff}
	for i, ev := range js.Events {
		if ev.Kind != wantKinds[i] {
			t.Fatalf("event %d kind = %s, want %s", i, ev.KindName, wantKinds[i])
		}
	}
	if !j.Anomalous() {
		t.Fatal("journal should be anomalous after NoteAnomaly")
	}
	if s.Anomalies() != 0 {
		// CountAnomaly is the engine's explicit transition counter.
		t.Fatalf("Anomalies() = %d before CountAnomaly, want 0", s.Anomalies())
	}
	s.CountAnomaly(0)
	if s.Anomalies() != 1 || s.Sampled() != 1 {
		t.Fatalf("Anomalies()=%d Sampled()=%d, want 1,1", s.Anomalies(), s.Sampled())
	}
}

func TestIPv6Key(t *testing.T) {
	s := testScope(t)
	k := pkt.FlowKey{
		SrcIP:   netip.MustParseAddr("2001:db8::1"),
		DstIP:   netip.MustParseAddr("2001:db8::2"),
		SrcPort: 1234,
		DstPort: 443,
		Proto:   pkt.ProtoTCP,
	}
	s.Acquire(1, Binding{ID: 9, Key: k, Created: 5, Sampled: true})
	snaps := s.Snapshot()
	if len(snaps) != 1 || snaps[0].Key != k.String() {
		t.Fatalf("IPv6 key round-trip failed: %+v", snaps)
	}
}

func TestRebindDiscardsHistory(t *testing.T) {
	s := testScope(t)
	j1, gen1 := s.Acquire(0, Binding{ID: 1, Key: testKey(), Created: 10, Sampled: true})
	j1.Note(EvCreated, 10, 0, 0)
	// Wrap the whole pool so journal 0 is rebound.
	var last *Journal
	var lastGen uint64
	for i := 0; i < 8; i++ {
		last, lastGen = s.Acquire(0, Binding{ID: uint64(100 + i), Key: testKey(), Created: int64(20 + i), Sampled: true})
	}
	if last != j1 {
		t.Fatalf("pool of 8 should wrap back to the first journal")
	}
	if lastGen == gen1 {
		t.Fatal("rebind must advance the generation")
	}
	if j1.Gen() != lastGen {
		t.Fatalf("Gen() = %d, want %d", j1.Gen(), lastGen)
	}
	// The stale generation check is what the engine uses to drop writes.
	if gen1 == j1.Gen() {
		t.Fatal("stale gen must not match")
	}
	snaps := s.Snapshot()
	for _, js := range snaps {
		if js.StreamID == 1 {
			t.Fatal("rebound journal still reports the old stream")
		}
		if js.TotalEvents != 0 {
			t.Fatalf("rebound journal %d kept %d events", js.StreamID, js.TotalEvents)
		}
	}
}

func TestEventRingWraps(t *testing.T) {
	s := testScope(t)
	j, _ := s.Acquire(0, Binding{ID: 3, Key: testKey(), Sampled: true})
	for i := 0; i < slotsPerJournal+10; i++ {
		j.Note(EvChunkFlush, int64(i), int64(i), 0)
	}
	snaps := s.Snapshot()
	if len(snaps) != 1 {
		t.Fatalf("want 1 journal, got %d", len(snaps))
	}
	js := snaps[0]
	if js.TotalEvents != slotsPerJournal+10 {
		t.Fatalf("TotalEvents = %d, want %d", js.TotalEvents, slotsPerJournal+10)
	}
	if len(js.Events) != slotsPerJournal {
		t.Fatalf("decoded %d events, want %d", len(js.Events), slotsPerJournal)
	}
	// Oldest surviving event is seq 11; events must be in sequence order.
	if js.Events[0].Seq != 11 || js.Events[len(js.Events)-1].Seq != slotsPerJournal+10 {
		t.Fatalf("ring window wrong: first=%d last=%d", js.Events[0].Seq, js.Events[len(js.Events)-1].Seq)
	}
}

func TestSampleNewAndAdapt(t *testing.T) {
	s := testScope(t) // SampleEvery 4 => baseShift 2
	if got := s.SampleEvery(); got != 4 {
		t.Fatalf("SampleEvery = %d, want 4", got)
	}
	// Top 2 bits zero => sampled.
	if !s.SampleNew(0x0fff_ffff_ffff_ffff) {
		t.Fatal("hash with top bits clear should sample")
	}
	if s.SampleNew(0xffff_ffff_ffff_ffff) {
		t.Fatal("hash with top bits set should not sample")
	}
	s.Adapt(true)
	if got := s.SampleEvery(); got != 8 {
		t.Fatalf("after pressure step SampleEvery = %d, want 8", got)
	}
	for i := 0; i < 100; i++ {
		s.Adapt(true)
	}
	if got := s.SampleEvery(); got != 1<<defaultMaxShift {
		t.Fatalf("pressure ceiling SampleEvery = %d, want %d", got, 1<<defaultMaxShift)
	}
	for i := 0; i < 100; i++ {
		s.Adapt(false)
	}
	if got := s.SampleEvery(); got != 4 {
		t.Fatalf("recovery floor SampleEvery = %d, want 4", got)
	}
}

func TestSampleEveryOne(t *testing.T) {
	now := func() int64 { return 0 }
	s := New(Options{Cores: 1, SampleEvery: 1, Now: &now})
	for _, h := range []uint64{0, ^uint64(0), 0x8000_0000_0000_0000} {
		if !s.SampleNew(h) {
			t.Fatalf("SampleEvery 1 must sample every hash (h=%x)", h)
		}
	}
}

func TestSnapshotOrdersAnomaliesFirst(t *testing.T) {
	s := testScope(t)
	s.Acquire(0, Binding{ID: 1, Key: testKey(), Created: 10, Sampled: true})
	j2, _ := s.Acquire(0, Binding{ID: 2, Key: testKey(), Created: 20, Sampled: false})
	j2.NoteAnomaly(AnomGap, EvGap, 25, 100, 0)
	snaps := s.Snapshot()
	if len(snaps) != 2 {
		t.Fatalf("want 2 journals, got %d", len(snaps))
	}
	if snaps[0].StreamID != 2 {
		t.Fatalf("anomalous journal must sort first, got stream %d", snaps[0].StreamID)
	}
}

func TestChromeTrace(t *testing.T) {
	s := testScope(t)
	j, _ := s.Acquire(0, Binding{ID: 42, Key: testKey(), Created: 1000, Sampled: true})
	j.Note(EvCreated, 1000, 0, 0)
	j.Note(EvChunkFlush, 5000, 4096, 3000) // chunk opened at 2000, flushed at 5000
	j.NoteAnomaly(AnomCutoff, EvCutoff, 6000, 4096, 9000)

	tr := ChromeTrace(s.Snapshot())

	// Byte golden of the /debug/streams?format=chrome payload, so a change to
	// the shared exporter that Perfetto would notice shows up as a diff here.
	got, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/chrome.golden")
	if err != nil {
		t.Fatal(err)
	}
	if string(got)+"\n" != string(want) {
		t.Errorf("chrome export drifted from testdata/chrome.golden:\n got: %s\nwant: %s", got, want)
	}

	if tr.DisplayTimeUnit != "ms" {
		t.Fatalf("DisplayTimeUnit = %q", tr.DisplayTimeUnit)
	}
	// 1 thread_name metadata + 3 events.
	if len(tr.TraceEvents) != 4 {
		t.Fatalf("got %d trace events, want 4", len(tr.TraceEvents))
	}
	meta := tr.TraceEvents[0]
	if meta.Ph != "M" || meta.Name != "thread_name" {
		t.Fatalf("first event must be thread_name metadata: %+v", meta)
	}
	name, _ := meta.Args["name"].(string)
	if name == "" || name == "stream " {
		t.Fatalf("thread name empty: %+v", meta.Args)
	}
	var sawSpan bool
	for _, ev := range tr.TraceEvents[1:] {
		if ev.TID != meta.TID {
			t.Fatalf("event on wrong track: %+v", ev)
		}
		if ev.TS < 0 {
			t.Fatalf("negative timestamp: %+v", ev)
		}
		if ev.Ph == "X" {
			sawSpan = true
			if ev.Dur != 3000.0/1000 {
				t.Fatalf("span duration = %v µs, want 3", ev.Dur)
			}
		}
	}
	if !sawSpan {
		t.Fatal("chunk flush should render as a complete-event span")
	}
}
