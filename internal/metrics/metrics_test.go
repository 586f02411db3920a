package metrics

import (
	"fmt"
	"sync"
	"testing"
)

func TestCounterPerCoreTotals(t *testing.T) {
	r := NewRegistry(4)
	c := r.NewCounter(Desc{Name: "packets_total", Unit: "packets"})
	for core := 0; core < 4; core++ {
		cell := c.Cell(core)
		for i := 0; i <= core; i++ {
			cell.Inc()
		}
	}
	if got := c.Total(); got != 1+2+3+4 {
		t.Fatalf("Total = %d, want 10", got)
	}
	pc := c.PerCore(nil)
	want := []uint64{1, 2, 3, 4}
	for i, v := range want {
		if pc[i] != v {
			t.Fatalf("PerCore = %v, want %v", pc, want)
		}
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry(1)
	r.NewCounter(Desc{Name: "x"})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.NewGauge(Desc{Name: "x"})
}

// TestRegistryConcurrency hammers cells, gauges, histograms, and the flight
// recorder from many goroutines while another takes snapshots; the -race run is
// the real assertion.
func TestRegistryConcurrency(t *testing.T) {
	const cores = 4
	const iters = 2000
	r := NewRegistry(cores)
	c := r.NewCounter(Desc{Name: "frames_total"})
	g := r.NewGauge(Desc{Name: "inflight"})
	h := r.NewHistogram(Desc{Name: "batch"}, 8)
	var wg sync.WaitGroup
	for core := 0; core < cores; core++ {
		wg.Add(1)
		go func(core int) {
			defer wg.Done()
			cell := c.Cell(core)
			for i := 0; i < iters; i++ {
				cell.Add(2)
				g.Add(1)
				h.Observe(core, uint64(i%300))
				if i%512 == 0 {
					r.Flight().Note(core, FlightNICRingFull, 0, 0)
				}
			}
		}(core)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			r.Snapshot()
		}
	}()
	wg.Wait()
	<-done
	s := r.Snapshot()
	if got := s.CounterTotal("frames_total"); got != cores*iters*2 {
		t.Fatalf("frames_total = %d, want %d", got, cores*iters*2)
	}
	if got := s.GaugeValue("inflight"); got != cores*iters {
		t.Fatalf("inflight = %d, want %d", got, cores*iters)
	}
	var hcount uint64
	for _, hs := range s.Histograms {
		if hs.Name == "batch" {
			hcount = hs.Count
		}
	}
	if hcount != cores*iters {
		t.Fatalf("histogram count = %d, want %d", hcount, cores*iters)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram(Desc{Name: "h"}, 2, 4) // le 1,2,4,8,16 + overflow
	for i, v := range []uint64{0, 1, 2, 3, 4, 5, 16, 17, 1000} {
		h.Observe(i%2, v) // spread over both rows; snapshot must merge them
	}
	s := h.snapshot()
	if s.Count != 9 {
		t.Fatalf("count = %d, want 9", s.Count)
	}
	if s.Sum != 0+1+2+3+4+5+16+17+1000 {
		t.Fatalf("sum = %d", s.Sum)
	}
	wantLe := []uint64{1, 2, 4, 8, 16, 0}
	wantN := []uint64{2, 1, 2, 1, 1, 2} // {0,1} {2} {3,4} {5} {16} {17,1000}
	if len(s.Buckets) != len(wantLe) {
		t.Fatalf("buckets = %d, want %d", len(s.Buckets), len(wantLe))
	}
	for i := range wantLe {
		if s.Buckets[i].Le != wantLe[i] || s.Buckets[i].Count != wantN[i] {
			t.Fatalf("bucket %d = {le:%d n:%d}, want {le:%d n:%d}",
				i, s.Buckets[i].Le, s.Buckets[i].Count, wantLe[i], wantN[i])
		}
	}
}

// TestEventsView pins the /metrics events array as a view of flight records:
// the seven edge-triggered kinds under their wire names with the right fields,
// every other kind left out, and only the newest maxEvents kept, oldest first.
func TestEventsView(t *testing.T) {
	rec := func(kind FlightKind, ts, value, aux int64) FlightRecord {
		return FlightRecord{TimeUnixNano: ts, Core: 1, Kind: kind, KindName: kind.String(), Value: value, Aux: aux}
	}
	cases := []struct {
		kind FlightKind
		want Event // KindName "" = not in the view
	}{
		{FlightPPLEnter, Event{KindName: "ppl_enter", Value: 7}},
		{FlightPPLExit, Event{KindName: "ppl_exit", Dur: 7}},
		{FlightNICRingFull, Event{KindName: "ring_full"}},
		{FlightNICRingRecover, Event{KindName: "ring_full_end", Value: 7, Dur: 9}},
		{FlightRingOverflow, Event{KindName: "event_ring_overflow", Value: 7}},
		{FlightFDIRInstall, Event{KindName: "fdir_install", Value: 7}},
		{FlightFDIRRemove, Event{KindName: "fdir_remove", Value: 7}},
		{FlightCutoff, Event{}},
		{FlightFDIRRebalance, Event{}},
		{FlightArenaFallback, Event{}},
		{FlightStreamCreate, Event{}},
		{FlightStreamExpire, Event{}},
		{FlightCtlTighten, Event{}},
		{FlightCtlRelax, Event{}},
		{FlightCtlFDIRBudget, Event{}},
		{FlightCtlWatermarks, Event{}},
	}
	if len(cases) != len(flightKindNames) {
		t.Fatalf("table covers %d flight kinds, the recorder has %d", len(cases), len(flightKindNames))
	}
	for _, c := range cases {
		got := eventsView([]FlightRecord{rec(c.kind, 100, 7, 9)})
		if c.want.KindName == "" {
			if got == nil || len(got) != 0 {
				t.Errorf("%s: view = %+v, want empty and non-nil", c.kind, got)
			}
			continue
		}
		c.want.TimeUnixNano, c.want.Core = 100, 1
		if len(got) != 1 || got[0] != c.want {
			t.Errorf("%s: view = %+v, want [%+v]", c.kind, got, c.want)
		}
	}

	// More matching records than the view keeps, interleaved with a kind it
	// leaves out: the newest maxEvents survive, in time order.
	var recs []FlightRecord
	for i := int64(0); i < maxEvents+10; i++ {
		recs = append(recs, rec(FlightFDIRInstall, 2*i, i, 0), rec(FlightCutoff, 2*i+1, i, 0))
	}
	got := eventsView(recs)
	if len(got) != maxEvents {
		t.Fatalf("view kept %d events, want %d", len(got), maxEvents)
	}
	for i, e := range got {
		if want := int64(10 + i); e.KindName != "fdir_install" || e.Value != want || e.TimeUnixNano != 2*want {
			t.Fatalf("event %d = %+v, want fdir_install value %d (newest %d, oldest first)", i, e, want, maxEvents)
		}
	}
}

func TestSlabExhaustionPanics(t *testing.T) {
	r := NewRegistry(1)
	for i := 0; i < slabSlots; i++ {
		r.NewCounter(Desc{Name: fmt.Sprintf("c%d", i)})
	}
	defer func() {
		if recover() == nil {
			t.Fatal("slab exhaustion did not panic")
		}
	}()
	r.NewCounter(Desc{Name: "one_too_many"})
}

func TestFuncMetrics(t *testing.T) {
	r := NewRegistry(1)
	v := uint64(7)
	r.NewCounterFunc(Desc{Name: "ext_total"}, func() uint64 { return v })
	r.NewGaugeFunc(Desc{Name: "ext_now"}, func() int64 { return int64(v) * 2 })
	s := r.Snapshot()
	if s.CounterTotal("ext_total") != 7 || s.GaugeValue("ext_now") != 14 {
		t.Fatalf("func metrics: counter=%d gauge=%d", s.CounterTotal("ext_total"), s.GaugeValue("ext_now"))
	}
}

// TestObserveNEqualsRepeatedObserve: n observations of one value in one step
// leave the histogram exactly as n single observations do — buckets, count,
// sum, including the first and the overflow bucket.
func TestObserveNEqualsRepeatedObserve(t *testing.T) {
	reg := NewRegistry(2)
	a := reg.NewHistogram(Desc{Name: "a"}, 6)
	b := reg.NewHistogram(Desc{Name: "b"}, 6)
	for _, c := range []struct {
		core int
		v, n uint64
	}{{0, 0, 3}, {0, 1, 1}, {1, 2, 64}, {0, 37, 7}, {1, 64, 5}, {0, 65, 2}, {1, 1 << 20, 9}, {7, 5, 4}, {0, 9, 0}} {
		a.ObserveN(c.core, c.v, c.n)
		for i := uint64(0); i < c.n; i++ {
			b.Observe(c.core, c.v)
		}
	}
	sa, sb := a.Snap(), b.Snap()
	if sa.Count != sb.Count || sa.Sum != sb.Sum {
		t.Fatalf("count/sum: ObserveN %d/%d, Observe %d/%d", sa.Count, sa.Sum, sb.Count, sb.Sum)
	}
	for i := range sa.Buckets {
		if sa.Buckets[i] != sb.Buckets[i] {
			t.Fatalf("bucket %d: ObserveN %+v, Observe %+v", i, sa.Buckets[i], sb.Buckets[i])
		}
	}
}
