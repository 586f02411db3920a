package core

import (
	"bytes"
	"testing"

	"scap/internal/event"
	"scap/internal/flowtab"
	"scap/internal/metrics"
	"scap/internal/nic"
	"scap/internal/pkt"
)

func udpKey(i int) pkt.FlowKey {
	return pkt.FlowKey{
		SrcIP: pkt.MustAddr("10.1.0.1"), DstIP: pkt.MustAddr("10.1.0.2"),
		SrcPort: uint16(20000 + i), DstPort: 9000, Proto: pkt.ProtoUDP,
	}
}

// TestSketchSuppressesBeyondCutoff drives many UDP flows past a byte cutoff
// and verifies the million-flow contract end to end: every flow's record is
// retired at its cutoff, later packets are answered from the sketch alone
// (no record, drop-attributed to "sketch"), and the table's occupancy stays
// near zero while the sketch's observed totals keep counting.
func TestSketchSuppressesBeyondCutoff(t *testing.T) {
	const (
		flows     = 50
		pktBytes  = 500
		pktsPer   = 6
		cutoff    = 1000 // two packets captured, the rest suppressed
		wantSuppr = flows * 3
	)
	h := newHarness(Config{
		Cutoff: cutoff,
		Sketch: SketchConfig{Enabled: true},
	})
	payload := bytes.Repeat([]byte("u"), pktBytes)
	for p := 0; p < pktsPer; p++ {
		for i := 0; i < flows; i++ {
			h.feed(pkt.BuildUDP(pkt.UDPSpec{Key: udpKey(i), Payload: payload}))
		}
	}
	h.e.CheckTimers(h.ts)
	h.drain()

	if n := h.e.Table().Len(); n != 0 {
		t.Errorf("table holds %d records, want 0 (all flows past cutoff)", n)
	}
	terms := h.byType(event.Termination)
	if len(terms) != flows {
		t.Fatalf("terminations = %d, want %d", len(terms), flows)
	}
	for _, ev := range terms {
		if ev.Info.Status != flowtab.StatusCutoff {
			t.Errorf("retired stream status = %v, want StatusCutoff", ev.Info.Status)
		}
	}
	st := h.e.Stats()
	if st.SketchSuppressedPkts != wantSuppr {
		t.Errorf("suppressed pkts = %d, want %d", st.SketchSuppressedPkts, wantSuppr)
	}
	if st.SketchSuppressedBytes != wantSuppr*pktBytes {
		t.Errorf("suppressed bytes = %d, want %d", st.SketchSuppressedBytes, wantSuppr*pktBytes)
	}
	if st.SketchObservedPkts != flows*pktsPer {
		t.Errorf("observed pkts = %d, want %d", st.SketchObservedPkts, flows*pktsPer)
	}
	// Every flow crossed the cutoff, so the sketch's heavy tracker (capped
	// at the default top-k) must be populated.
	if h.e.Sketch().HeavyCount() == 0 {
		t.Error("no heavy-flow entries after elephants crossed the cutoff")
	}
	// Captured data stops exactly at the cutoff per flow.
	if want := uint64(flows * cutoff); st.StoredBytes != want {
		t.Errorf("stored bytes = %d, want %d", st.StoredBytes, want)
	}
}

// TestSketchRetirementHandsFiltersToSketch verifies the FDIR hand-off: a TCP
// stream reaches its cutoff, installs NIC drop filters, and is retired — the
// filters survive the record, and when they expire the sketch's heavy entry
// re-nominates the still-untracked flow through installSketchFDIR.
func TestSketchRetirementHandsFiltersToSketch(t *testing.T) {
	dev := nic.New(nic.Config{Queues: 1})
	h := newHarnessOpts(Options{
		Config: Config{
			Cutoff:            10,
			UseFDIR:           true,
			InactivityTimeout: 1e9,
			Sketch:            SketchConfig{Enabled: true},
		},
		NIC: dev,
	})
	ss := newSession(42000, 80)
	clientKey := ss.key
	h.feed(ss.syn(), ss.synack(), ss.data(bytes.Repeat([]byte("y"), 50)))

	// Cutoff reached: the client record is retired but its filter pair must
	// stay installed, now owned by the sketch's heavy entry.
	if s := h.e.Table().Lookup(clientKey); s != nil {
		t.Fatal("client record still tracked after cutoff retirement")
	}
	if p, _ := dev.FilterCount(); p != 2 {
		t.Fatalf("filters after retirement = %d, want 2", p)
	}
	if st := h.e.Stats(); st.FDIRInstalled != 1 {
		t.Errorf("FDIRInstalled = %d, want 1", st.FDIRInstalled)
	}

	// More data for the suppressed flow is answered by the sketch, without
	// resurrecting a record.
	h.feed(ss.data([]byte("more-data")))
	if s := h.e.Table().Lookup(clientKey); s != nil {
		t.Error("suppressed packet resurrected a record")
	}
	if st := h.e.Stats(); st.SketchSuppressedPkts == 0 {
		t.Error("no sketch suppression counted")
	}

	// Let the filter deadline pass: expireFilters removes the pair and
	// clears the sketch's FDIR mark; installSketchFDIR then re-nominates
	// the still-heavy, still-untracked flow in the same timer call.
	h.ts += 2e9
	h.e.CheckTimers(h.ts)
	if p, _ := dev.FilterCount(); p != 2 {
		t.Fatalf("filters after sketch re-nomination = %d, want 2", p)
	}
	if st := h.e.Stats(); st.FDIRInstalled != 2 {
		t.Errorf("FDIRInstalled = %d, want 2 (record install + sketch install)", st.FDIRInstalled)
	}

	// The published snapshot carries the heavy entry with its FDIR mark.
	snap := h.e.Sketch().Snapshot()
	marked := false
	for _, hf := range snap.Heavies {
		if hf.Key == clientKey && hf.FDIR {
			marked = true
		}
	}
	if !marked {
		t.Error("snapshot missing FDIR-marked heavy entry for the retired flow")
	}

	// Every install and removal the counters saw — the record's own install,
	// the deadline removal, the sketch-owned install — is also a flight
	// record: /debug/flight and the /metrics events array report filter
	// churn from those.
	st := h.e.Stats()
	var installs, removes uint64
	for _, r := range h.e.m.flight.Snapshot() {
		switch r.Kind {
		case metrics.FlightFDIRInstall:
			installs++
		case metrics.FlightFDIRRemove:
			removes++
		}
	}
	if st.FDIRRemoved == 0 || installs != st.FDIRInstalled || removes != st.FDIRRemoved {
		t.Errorf("flight records: %d fdir_install, %d fdir_remove; counters: %d installed, %d removed",
			installs, removes, st.FDIRInstalled, st.FDIRRemoved)
	}
}

// TestSketchAnswersFilteredFlows: with the sketch in front, flows rejected
// by the socket filter never get a record at all (previously each one cost a
// stream record just to remember the rejection).
func TestSketchAnswersFilteredFlows(t *testing.T) {
	h := newHarnessOpts(Options{Config: Config{
		Cutoff: CutoffUnlimited,
		Filter: mustFilter(t, "port 80"),
		Sketch: SketchConfig{Enabled: true},
	}})
	ss80 := newSession(42010, 80)
	ss443 := newSession(42011, 443)
	h.feed(ss80.syn(), ss80.synack(), ss80.data([]byte("http")))
	h.feed(ss443.syn(), ss443.synack(), ss443.data([]byte("tls!")))

	if n := len(h.byType(event.Creation)); n != 2 {
		t.Errorf("creations = %d, want 2 (only the port-80 pair)", n)
	}
	if n := h.e.Table().Len(); n != 2 {
		t.Errorf("table len = %d, want 2 — filtered flows must not be tracked", n)
	}
	st := h.e.Stats()
	if st.FilterIgnoredPkts != 3 {
		t.Errorf("filter-ignored pkts = %d, want 3", st.FilterIgnoredPkts)
	}
	// The kept pair still delivers its data on termination.
	id := h.byType(event.Creation)[0].Info.ID
	h.feed(ss80.fin(), ss80.srvFin())
	if string(h.dataFor(id)) != "http" {
		t.Error("port-80 stream data lost")
	}
}

// TestSketchKeepsHighPriorityRecords: flows above SuppressMaxPriority must
// keep their records past the cutoff (PPL protection extends to record
// retention).
func TestSketchKeepsHighPriorityRecords(t *testing.T) {
	h := newHarnessOpts(Options{Config: Config{
		Cutoff:     8,
		Priorities: 2,
		PriorityClasses: []PriorityClass{
			{Filter: mustFilter(t, "port 443"), Priority: 1},
		},
		Sketch: SketchConfig{Enabled: true, SuppressMaxPriority: 0},
	}})
	ssLow := newSession(42020, 80)
	ssHigh := newSession(42021, 443)
	for _, ss := range []*session{ssLow, ssHigh} {
		h.feed(ss.syn(), ss.synack())
		h.feed(ss.data(bytes.Repeat([]byte("z"), 40)))
		h.feed(ss.data(bytes.Repeat([]byte("z"), 40)))
	}
	if s := h.e.Table().Lookup(ssLow.key); s != nil {
		t.Error("low-priority flow kept its record past the cutoff")
	}
	s := h.e.Table().Lookup(ssHigh.key)
	if s == nil {
		t.Fatal("high-priority flow lost its record")
	}
	if s.Status != flowtab.StatusCutoff {
		t.Errorf("high-priority flow status = %v, want StatusCutoff", s.Status)
	}
	// Its packets keep updating the record (stats survive past cutoff):
	// SYN + both data packets.
	if s.Stats.Pkts != 3 {
		t.Errorf("high-priority stats stopped: %d pkts, want 3", s.Stats.Pkts)
	}
}

// TestSketchDisabledUnchanged pins the default path: without the sketch the
// engine tracks every flow, including beyond-cutoff and filtered ones.
func TestSketchDisabledUnchanged(t *testing.T) {
	h := newHarness(Config{Cutoff: 4})
	ss := newSession(42030, 80)
	h.feed(ss.syn(), ss.synack())
	h.feed(ss.data(bytes.Repeat([]byte("q"), 100)))
	h.feed(ss.data(bytes.Repeat([]byte("q"), 100)))
	if s := h.e.Table().Lookup(ss.key); s == nil {
		t.Fatal("record retired with sketch disabled")
	}
	if st := h.e.Stats(); st.SketchSuppressedPkts != 0 || st.SketchObservedPkts != 0 {
		t.Errorf("sketch counters moved while disabled: %+v", st)
	}
	if h.e.Sketch() != nil {
		t.Error("Sketch() non-nil while disabled")
	}
}
