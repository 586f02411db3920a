package metrics

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenPayload builds a deterministic registry (synthetic clock, fixed
// values) so the marshaled /metrics payload is byte-stable.
func goldenPayload() Payload {
	r := NewRegistry(2)
	clock := int64(1_700_000_000_000_000_000)
	r.SetClock(func() int64 { return clock })
	c := r.NewCounter(Desc{Name: "packets_total", Help: "packets processed", Unit: "packets", Paper: "Fig. 7"})
	r.NewCounterFunc(Desc{Name: "mem_admitted_total", Unit: "bytes"}, func() uint64 { return 4096 })
	g := r.NewGauge(Desc{Name: "memory_used_bytes", Unit: "bytes"})
	h := r.NewHistogram(Desc{Name: "event_batch_size", Unit: "events"}, 2)

	w := NewWindow(r)
	w.Collect() // establish the window baseline

	c.Cell(0).Add(200)
	c.Cell(1).Add(100)
	g.Set(1 << 20)
	h.Observe(0, 1)
	h.Observe(1, 3)
	h.Observe(0, 9)
	r.Flight().Note(1, FlightPPLEnter, 850, 0)
	clock += 1_000_000_000
	return w.Collect()
}

func TestPayloadGolden(t *testing.T) {
	p := goldenPayload()
	got, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "payload.golden")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("payload drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestParsePayloadRoundTrip(t *testing.T) {
	p := goldenPayload()
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParsePayload(b)
	if err != nil {
		t.Fatal(err)
	}
	cp := back.Counter("packets_total")
	if cp == nil {
		t.Fatal("packets_total missing after round trip")
	}
	if cp.Total != 300 || cp.Rate != 300 {
		t.Fatalf("total=%d rate=%v, want 300/300", cp.Total, cp.Rate)
	}
	if len(cp.PerCore) != 2 || cp.PerCore[0] != 200 || cp.PerCore[1] != 100 {
		t.Fatalf("per-core = %v", cp.PerCore)
	}
	if gv := back.Gauge("memory_used_bytes"); gv == nil || gv.Value != 1<<20 {
		t.Fatalf("gauge = %+v", gv)
	}
	if len(back.Events) != 1 || back.Events[0].KindName != "ppl_enter" || back.Events[0].Value != 850 {
		t.Fatalf("events = %+v", back.Events)
	}
	if back.Counter("nope") != nil || back.Gauge("nope") != nil {
		t.Fatal("lookup of absent metric should return nil")
	}
	if _, err := ParsePayload([]byte("{not json")); err == nil {
		t.Fatal("ParsePayload accepted garbage")
	}
}
