package mem

import (
	"math"
	"testing"
)

func TestSetWatermarksNormalizes(t *testing.T) {
	m := New(Config{Size: 1000, BaseThreshold: 0.5, Priorities: 3})

	// Default ladder: equal spacing above the base threshold.
	def := m.Watermarks()
	want := []float64{0.5 + 0.5/3, 0.5 + 1.0/3, 1}
	for i := range want {
		if math.Abs(def[i]-want[i]) > 1e-9 {
			t.Fatalf("default watermarks = %v, want %v", def, want)
		}
	}

	// An explicit table is clamped into [base, 1], forced monotone, and the
	// top is pinned to 1.
	m.SetWatermarks([]float64{0.2, 0.6, 0.9})
	got := m.Watermarks()
	want = []float64{0.5, 0.6, 1} // 0.2 < base → base; top pinned
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("watermarks = %v, want %v", got, want)
		}
	}
	if w := m.Watermark(1); math.Abs(w-0.6) > 1e-9 {
		t.Fatalf("Watermark(1) = %v, want 0.6", w)
	}

	// Non-monotone input is raised to the running maximum.
	m.SetWatermarks([]float64{0.8, 0.6, 0.7})
	got = m.Watermarks()
	want = []float64{0.8, 0.8, 1}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("non-monotone normalized = %v, want %v", got, want)
		}
	}

	// Wrong length or nil resets to the default spacing.
	m.SetWatermarks([]float64{0.9})
	got = m.Watermarks()
	for i := range def {
		if math.Abs(got[i]-def[i]) > 1e-9 {
			t.Fatalf("after wrong-length reset = %v, want default %v", got, def)
		}
	}
	m.SetWatermarks([]float64{0.8, 0.9, 0.95})
	m.SetWatermarks(nil)
	got = m.Watermarks()
	for i := range def {
		if math.Abs(got[i]-def[i]) > 1e-9 {
			t.Fatalf("after nil reset = %v, want default %v", got, def)
		}
	}
}

func TestDecideUsesExplicitWatermarks(t *testing.T) {
	m := New(Config{Size: 1000, BaseThreshold: 0.5, Priorities: 2})
	// Fill to 70%: above base, below the default priority-0 watermark 0.75.
	if !m.Reserve(700) {
		t.Fatal("reserve failed")
	}
	if d := m.Decide(0, 0, 10); d != Admit {
		t.Fatalf("default ladder: priority 0 at 71%% = %v, want Admit", d)
	}

	// Lower priority 0's drop point to 0.6: the same packet now drops,
	// while priority 1 (pinned at 1) is still admitted.
	m.SetWatermarks([]float64{0.6, 1})
	if d := m.Decide(0, 0, 10); d != DropPriority {
		t.Fatalf("explicit ladder: priority 0 at 71%% = %v, want DropPriority", d)
	}
	if d := m.Decide(1, 0, 10); d != Admit {
		t.Fatalf("explicit ladder: priority 1 = %v, want Admit", d)
	}

	// Restoring the default ladder re-admits priority 0.
	m.SetWatermarks(nil)
	if d := m.Decide(0, 0, 10); d != Admit {
		t.Fatalf("restored ladder: priority 0 = %v, want Admit", d)
	}
}

func TestArenaUsedFraction(t *testing.T) {
	m := New(Config{Size: 1 << 20})
	if f := m.ArenaUsedFraction(); f != 0 {
		t.Fatalf("fresh arena fraction = %v, want 0", f)
	}
	h, _ := m.AllocBlock(0)
	if h == NoBlock {
		t.Fatal("no block")
	}
	if f := m.ArenaUsedFraction(); f <= 0 || f > 1 {
		t.Fatalf("fraction with one block held = %v", f)
	}
	m.FreeBlock(0, h)
}

// TestDecidePendingMatchesReserveThenDecide: deciding against used plus a
// caller's unpublished bytes gives the answer a Reserve of those bytes
// followed by Decide would — at every usage level across the watermark
// ladder, for every priority — and reserves nothing itself.
func TestDecidePendingMatchesReserveThenDecide(t *testing.T) {
	cfg := Config{Size: 10000, BaseThreshold: 0.5, Priorities: 3, OverloadCutoff: 64}
	for pending := int64(0); pending <= 10000; pending += 250 {
		for base := int64(0); base+pending <= 10000; base += 1000 {
			for prio := 0; prio < 3; prio++ {
				for _, pos := range []int64{0, 64} {
					a, b := New(cfg), New(cfg)
					a.Reserve(int(base))
					b.Reserve(int(base + pending))
					got := a.DecidePending(pending, prio, pos, 100)
					want := b.Decide(prio, pos, 100)
					if got != want {
						t.Fatalf("used %d pending %d prio %d pos %d: DecidePending = %v, Reserve+Decide = %v", base, pending, prio, pos, got, want)
					}
					if a.Used() != base {
						t.Fatalf("DecidePending changed used: %d → %d", base, a.Used())
					}
					a.Close()
					b.Close()
				}
			}
		}
	}
}
