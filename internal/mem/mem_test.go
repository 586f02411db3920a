package mem

import (
	"math/rand"
	"testing"

	"scap/internal/metrics"
)

func TestAdmitBelowBaseThreshold(t *testing.T) {
	m := New(Config{Size: 1000, BaseThreshold: 0.9, Priorities: 2, OverloadCutoff: 10})
	// Below base threshold everything is admitted, even beyond the
	// overload cutoff and at the lowest priority.
	for i := 0; i < 8; i++ {
		if d := m.Admit(0, 1<<20, 100); d != Admit {
			t.Fatalf("admission %d = %v", i, d)
		}
	}
	if m.Used() != 800 {
		t.Errorf("used = %d", m.Used())
	}
}

func TestWatermarkSpacing(t *testing.T) {
	m := New(Config{Size: 1000, BaseThreshold: 0.8, Priorities: 4})
	want := []float64{0.85, 0.9, 0.95, 1.0}
	for p, w := range want {
		if got := m.Watermark(p); got < w-1e-9 || got > w+1e-9 {
			t.Errorf("Watermark(%d) = %v, want %v", p, got, w)
		}
	}
	// Out-of-range priorities clamp.
	if m.Watermark(99) != m.Watermark(3) || m.Watermark(-1) != m.Watermark(0) {
		t.Error("clamping broken")
	}
}

func TestLowPriorityDropsFirst(t *testing.T) {
	m := New(Config{Size: 1000, BaseThreshold: 0.5, Priorities: 2})
	// Fill to 70%: above base (50%), above low watermark (75%)? No:
	// watermark(low)=0.75, watermark(high)=1.0.
	if !m.Reserve(700) {
		t.Fatal("reserve failed")
	}
	// 700+100 = 80% > 75%: low priority drops, high admits.
	if d := m.Admit(0, 0, 100); d != DropPriority {
		t.Errorf("low-priority admission = %v, want DropPriority", d)
	}
	if d := m.Admit(1, 0, 100); d != Admit {
		t.Errorf("high-priority admission = %v, want Admit", d)
	}
}

func TestOverloadCutoffRegion(t *testing.T) {
	m := New(Config{Size: 1000, BaseThreshold: 0.5, Priorities: 1, OverloadCutoff: 4096})
	m.Reserve(600) // 60%: inside pressure region (50%..100%)
	// A packet early in its stream is admitted; one beyond the overload
	// cutoff is dropped.
	if d := m.Admit(0, 100, 50); d != Admit {
		t.Errorf("early bytes = %v", d)
	}
	if d := m.Admit(0, 8192, 50); d != DropOverloadCutoff {
		t.Errorf("late bytes = %v, want DropOverloadCutoff", d)
	}
	if s := m.Stats(); s.DroppedCutoff != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestNoMemoryDrop(t *testing.T) {
	m := New(Config{Size: 100, BaseThreshold: 0.9, Priorities: 1})
	m.Reserve(100)
	if d := m.Admit(0, 0, 1); d != DropNoMemory {
		t.Errorf("decision = %v, want DropNoMemory", d)
	}
}

func TestReleaseRestoresAdmission(t *testing.T) {
	m := New(Config{Size: 1000, BaseThreshold: 0.5, Priorities: 2})
	m.Reserve(900)
	if d := m.Admit(0, 0, 50); d != DropPriority {
		t.Fatalf("expected drop at 95%%, got %v", d)
	}
	// The drop opened a pressure episode. No registry is attached: the
	// episode flag gates behaviour (pressure-only bookkeeping, journal
	// sampling, the controller's signal), not just telemetry.
	if !m.UnderPPL() {
		t.Error("UnderPPL() = false after a PPL drop")
	}
	m.Release(600) // back to 30%
	if m.UnderPPL() {
		t.Error("UnderPPL() still true after releasing below the base threshold")
	}
	if d := m.Admit(0, 0, 50); d != Admit {
		t.Errorf("post-release decision = %v", d)
	}
}

// TestPPLEpisodeFlightRecords: with a registry attached, the episode's two
// edges are flight records on the registry clock, and the exit carries the
// time between them.
func TestPPLEpisodeFlightRecords(t *testing.T) {
	reg := metrics.NewRegistry(1)
	clock := int64(1000)
	reg.SetClock(func() int64 { return clock })
	m := New(Config{Size: 1000, BaseThreshold: 0.5, Priorities: 2})
	m.PublishMetrics(reg)
	m.Reserve(900)
	m.Admit(0, 0, 50) // dropped at 95%: episode opens
	clock = 1700
	m.Release(600) // 30%: episode closes
	recs := reg.Flight().Snapshot()
	if len(recs) != 2 {
		t.Fatalf("flight records = %+v, want ppl_enter and ppl_exit", recs)
	}
	if r := recs[0]; r.Kind != metrics.FlightPPLEnter || r.TimeUnixNano != 1000 || r.Value != 900 {
		t.Errorf("enter = %+v, want ppl_enter at 1000 with 900 per-mille", r)
	}
	if r := recs[1]; r.Kind != metrics.FlightPPLExit || r.TimeUnixNano != 1700 || r.Value != 700 {
		t.Errorf("exit = %+v, want ppl_exit at 1700 lasting 700", r)
	}
}

func TestReleaseUnderflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on underflow")
		}
	}()
	New(Config{Size: 10}).Release(1)
}

// TestPPLMonotonicity is the property test from DESIGN.md: at any occupancy,
// if a packet of priority p is admitted (ignoring cutoff), every packet of
// priority > p at the same occupancy is admitted too; and if priority p is
// dropped by watermark, every lower priority is dropped too.
func TestPPLMonotonicity(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + r.Intn(6)
		size := int64(1000)
		base := 0.3 + r.Float64()*0.6
		used := int64(r.Intn(1000))
		pktSize := 1 + r.Intn(50)
		results := make([]Decision, n)
		for p := 0; p < n; p++ {
			m := New(Config{Size: size, BaseThreshold: base, Priorities: n})
			m.Reserve(int(used))
			results[p] = m.Admit(p, 0, pktSize)
		}
		for p := 1; p < n; p++ {
			if results[p-1] == Admit && results[p] != Admit {
				t.Fatalf("trial %d: priority %d admitted but %d dropped (used=%d base=%v n=%d): %v",
					trial, p-1, p, used, base, n, results)
			}
		}
	}
}

func TestHighestPriorityDropsOnlyWhenFull(t *testing.T) {
	m := New(Config{Size: 1000, BaseThreshold: 0.5, Priorities: 3})
	m.Reserve(999)
	// Highest priority watermark is 1.0: a packet that fits is admitted.
	if d := m.Admit(2, 0, 1); d != Admit {
		t.Errorf("decision = %v", d)
	}
	if d := m.Admit(2, 0, 1); d != DropNoMemory {
		t.Errorf("decision = %v", d)
	}
}

func TestHighWaterTracking(t *testing.T) {
	m := New(Config{Size: 1000})
	m.Reserve(400)
	m.Release(100)
	m.Reserve(50)
	if m.Stats().HighWater != 400 {
		t.Errorf("highwater = %d", m.Stats().HighWater)
	}
}

func TestDefaults(t *testing.T) {
	m := New(Config{})
	if m.Size() != 1<<30 {
		t.Errorf("default size = %d", m.Size())
	}
	if w := m.Watermark(0); w != 1.0 {
		t.Errorf("single-priority watermark = %v, want 1.0", w)
	}
}
