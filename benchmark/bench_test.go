package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math/rand"
	"os"
	"testing"
	"time"

	"scap/internal/pkt"
	"scap/internal/reassembly"
)

// testDiv shrinks the workloads so the whole file runs in seconds.
const testDiv = 64

func TestSeedDeterminesFrames(t *testing.T) {
	for _, w := range workloads {
		w = w.scaled(testDiv)
		a, b, c := buildFrames(w, 7, nil), buildFrames(w, 7, nil), buildFrames(w, 8, nil)
		if len(a.frames) != len(b.frames) {
			t.Fatalf("%s: same seed gave %d and %d frames", w.Name, len(a.frames), len(b.frames))
		}
		for i := range a.frames {
			if !bytes.Equal(a.frames[i], b.frames[i]) || a.cliWord[i] != b.cliWord[i] {
				t.Fatalf("%s: same seed, frame %d differs", w.Name, i)
			}
		}
		same := len(a.frames) == len(c.frames)
		for i := 0; same && i < len(a.frames); i++ {
			same = bytes.Equal(a.frames[i], c.frames[i])
		}
		if same {
			t.Errorf("%s: seeds 7 and 8 gave identical frames", w.Name)
		}
		// The size multiset does not depend on the seed, so neither does
		// the payload carried (duplicates aside).
		ra, _ := buildReference(a.frames, -1)
		rc, _ := buildReference(c.frames, -1)
		if ra.tcpBytes+ra.udpBytes != rc.tcpBytes+rc.udpBytes || ra.tcpDirs != rc.tcpDirs || ra.udpDirs != rc.udpDirs {
			t.Errorf("%s: seeds differ in volume: %d/%d bytes, %d/%d TCP dirs", w.Name,
				ra.tcpBytes+ra.udpBytes, rc.tcpBytes+rc.udpBytes, ra.tcpDirs, rc.tcpDirs)
		}
	}
}

func TestEveryTCPFlowIsComplete(t *testing.T) {
	for _, w := range workloads {
		w = w.scaled(testDiv)
		set := buildFrames(w, 3, nil)
		type state struct{ syn, fin, afterFin bool }
		dirs := make(map[pkt.FlowKey]*state)
		var p pkt.Packet
		for i, f := range set.frames {
			if err := pkt.Decode(f, &p); err != nil {
				t.Fatalf("%s: frame %d: %v", w.Name, i, err)
			}
			if p.Key.Proto != pkt.ProtoTCP {
				continue
			}
			s := dirs[p.Key]
			if s == nil {
				s = &state{}
				dirs[p.Key] = s
				if p.TCPFlags&pkt.FlagSYN == 0 {
					t.Fatalf("%s: %v starts without SYN", w.Name, p.Key)
				}
			}
			if s.fin {
				s.afterFin = true
			}
			s.syn = s.syn || p.TCPFlags&pkt.FlagSYN != 0
			s.fin = s.fin || p.TCPFlags&pkt.FlagFIN != 0
		}
		for k, s := range dirs {
			if !s.syn || !s.fin || s.afterFin {
				t.Errorf("%s: %v incomplete (syn %v fin %v frames after fin %v)", w.Name, k, s.syn, s.fin, s.afterFin)
			}
		}
		ref, err := buildReference(set.frames, w.Cutoff)
		if err != nil || ref.incomplete != 0 || ref.tcpDirs != len(dirs) {
			t.Errorf("%s: reference: err %v, %d incomplete, %d dirs (want %d)", w.Name, err, ref.incomplete, ref.tcpDirs, len(dirs))
		}
	}
}

func TestRetupleKeepsFramesValid(t *testing.T) {
	w := workloads[0].scaled(testDiv)
	set := buildFrames(w, 5, nil)
	sum16 := func(b []byte, init uint32) uint16 { return pkt.Checksum(b, init) }
	for i, f := range set.frames[:2000] {
		for _, pass := range []uint16{1, 0xffff, 0x1234, 0} {
			retuple(f, set.cliWord[i], pass)
			var p pkt.Packet
			if err := pkt.Decode(f, &p); err != nil {
				t.Fatal(err)
			}
			client := p.Key.SrcIP.As4()
			if set.cliWord[i] == cliWordDst {
				client = p.Key.DstIP.As4()
			}
			if client[0] != 10 || binary.BigEndian.Uint16(client[2:]) != pass {
				t.Fatalf("frame %d pass %#x: client address %v", i, pass, client)
			}
			if c := sum16(f[pkt.EthernetHeaderLen:l4Off], 0); c != 0 {
				t.Fatalf("frame %d pass %#x: IP header checksum residue %#x", i, pass, c)
			}
			l4 := f[l4Off:]
			if c := sum16(l4, pkt.PseudoHeaderSum(p.Key.SrcIP, p.Key.DstIP, p.Key.Proto, len(l4))); c != 0 {
				t.Fatalf("frame %d pass %#x proto %d: transport checksum residue %#x", i, pass, p.Key.Proto, c)
			}
		}
	}
}

// TestReferenceAgreesWithAssembler feeds the same segment sequences to the
// reference reassembler and to reassembly.Assembler.
func TestReferenceAgreesWithAssembler(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	content := make([]byte, 200<<10)
	rng.Read(content)
	type segment struct {
		off  int
		data []byte
	}
	var inOrder []segment
	for off := 0; off < len(content); {
		n := min(1+rng.Intn(1460), len(content)-off)
		inOrder = append(inOrder, segment{off, content[off : off+n]})
		off += n
	}
	reordered := append([]segment(nil), inOrder...)
	for i := 0; i+1 < len(reordered); i += 3 {
		reordered[i], reordered[i+1] = reordered[i+1], reordered[i]
	}
	var duplicated []segment
	for i, s := range reordered {
		duplicated = append(duplicated, s)
		if i%4 == 0 {
			duplicated = append(duplicated, s)
		}
	}
	const isn = 0xfffffff0 // the sequence space wraps inside the stream
	for name, segs := range map[string][]segment{"in-order": inOrder, "reordered": reordered, "duplicated": duplicated} {
		for _, mode := range []reassembly.Mode{reassembly.ModeFast, reassembly.ModeStrict} {
			ref := &refStream{tcp: true}
			asm := reassembly.New(reassembly.Config{Mode: mode})
			asm.Init(isn)
			var got []byte
			emit := func(b []byte, hole bool) {
				if hole {
					t.Errorf("%s mode %v: assembler reported a hole", name, mode)
				}
				got = append(got, b...)
			}
			for _, s := range segs {
				ref.add(uint64(s.off), s.data, -1)
				asm.Segment(isn+1+uint32(s.off), s.data, emit)
			}
			asm.Flush(emit)
			if ref.next != uint64(len(content)) || ref.sum != streamSum(0, content) || len(ref.stash) != 0 {
				t.Errorf("%s: reference reassembled %d bytes sum %08x, want %d sum %08x", name, ref.next, ref.sum, len(content), streamSum(0, content))
			}
			if uint64(len(got)) != ref.next || streamSum(0, got) != ref.sum {
				t.Errorf("%s mode %v: assembler delivered %d bytes sum %08x, reference %d sum %08x", name, mode, len(got), streamSum(0, got), ref.next, ref.sum)
			}
		}
	}
	// With a cutoff the reference expects exactly the prefix.
	ref := &refStream{tcp: true}
	for _, s := range duplicated {
		ref.add(uint64(s.off), s.data, 5000)
	}
	if ref.want != 5000 || ref.wantSum != streamSum(0, content[:5000]) {
		t.Errorf("cutoff prefix: %d bytes sum %08x, want 5000 sum %08x", ref.want, ref.wantSum, streamSum(0, content[:5000]))
	}
}

func TestQuantiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 2}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(xs, c.q); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 || median([]float64{7}) != 7 {
		t.Error("degenerate inputs")
	}
	if got := iqrFrac(xs); got < 2.0/3-1e-9 || got > 2.0/3+1e-9 {
		t.Errorf("iqrFrac = %v, want 2/3", got)
	}
	if xs[0] != 5 {
		t.Error("quantile reordered its input")
	}
}

func TestHostFactor(t *testing.T) {
	if f := hostFactor([]float64{nominalCalibNS, nominalCalibNS}); f != 1 {
		t.Errorf("nominal host: factor %v, want 1", f)
	}
	// Twice the nominal latency slows the pipeline, by less than twice.
	if f := hostFactor([]float64{3 * nominalCalibNS, nominalCalibNS}); f <= 1 || f >= 2 {
		t.Errorf("slow host: factor %v, want between 1 and 2", f)
	}
	if c := calibrate(); c <= 0 || c > 1e5 {
		t.Errorf("calibration reads %v ns per load", c)
	}
}

func TestPassClockStamps(t *testing.T) {
	c := newPassClock(10, 100, 1000, 8) // phase began at count 100, time 1000
	c.observe(105, 1500)
	if c.done != 0 || c.target() != 110 {
		t.Fatalf("early: done %d target %d", c.done, c.target())
	}
	c.observe(110, 2000) // pass 1
	c.observe(119, 2500)
	c.observe(131, 4000) // passes 2 and 3 seen at once
	if c.done != 3 || len(c.stamps) != 4 || c.stamps[1] != 2000 || c.stamps[2] != 4000 || c.stamps[3] != 4000 {
		t.Fatalf("done %d stamps %v", c.done, c.stamps)
	}
	rates := c.rates(500) // 500 frames per pass
	// Pass 1 took 1000 ns, pass 2 took 2000 ns; pass 3 has no interval of
	// its own and is left out.
	if len(rates) != 2 || rates[0] != 500/1000e-9 || rates[1] != 500/2000e-9 {
		t.Fatalf("rates %v", rates)
	}
}

func TestWorsening(t *testing.T) {
	up := metricDef{Better: "higher"}
	down := metricDef{Better: "lower"}
	if w := worsening(up, 100, 90); w < 0.0999 || w > 0.1001 {
		t.Errorf("higher-is-better 100→90: %v", w)
	}
	if w := worsening(down, 100, 90); w > -0.0999 || w < -0.1001 {
		t.Errorf("lower-is-better 100→90: %v", w)
	}
}

// runTiny drives one tiny workload through every phase.
func runTiny(t *testing.T, w workloadSpec, truncate bool) closeResult {
	t.Helper()
	set := buildFrames(w, 11, nil)
	ref, err := buildReference(set.frames, w.Cutoff)
	if err != nil {
		t.Fatal(err)
	}
	frames, cliWord := set.frames, set.cliWord
	if truncate {
		n := len(frames) * 2 / 3
		frames, cliWord = frames[:n], cliWord[:n]
	}
	r, err := newRunner(w, frames, cliWord, ref, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if truncate {
		r.awaitTimeout = 300 * time.Millisecond
	}
	r.verifyPass()
	if !truncate {
		if sat := r.saturate(50 * time.Millisecond); len(sat.rates) == 0 || len(sat.rates) > sat.passes {
			t.Errorf("%s: %d passes but %d rates", w.Name, sat.passes, len(sat.rates))
		}
		if pc := r.paced(100 * time.Millisecond); len(pc.latUS) != pc.probes || pc.probes == 0 {
			t.Errorf("%s: %d probes, %d latencies", w.Name, pc.probes, len(pc.latUS))
		}
	}
	return r.finish()
}

func TestPipelineDeliversEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		w = w.scaled(testDiv)
		w.PacedFPS = 20000
		if fin := runTiny(t, w, false); !fin.correct || fin.lossFrac != 0 || fin.failed != 0 {
			t.Errorf("%s: correct %v loss %v failed %d: %v", w.Name, fin.correct, fin.lossFrac, fin.failed, fin.problems)
		}
	}
}

// TestWindowHoldsInjectorBack narrows the event window to two stream
// directions: the injector must then wait for the callbacks again and again,
// never by more than the window, and the run stays complete.
func TestWindowHoldsInjectorBack(t *testing.T) {
	w := workloads[2].scaled(testDiv)
	set := buildFrames(w, 13, nil)
	ref, err := buildReference(set.frames, w.Cutoff)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k < len(ref.closeCum); k++ {
		if ref.closeCum[k] < ref.closeCum[k-1] {
			t.Fatalf("closeCum falls at frame %d", k)
		}
	}
	r, err := newRunner(w, set.frames, set.cliWord, ref, 16)
	if err != nil {
		t.Fatal(err)
	}
	r.window = 2
	clock := r.newClock(3)
	for p := 0; p < 3; p++ {
		r.satPass(clock)
		asked := uint64(r.passes) * uint64(ref.tcpDirs)
		if seen := r.closedTCP(); asked > seen+r.window {
			t.Errorf("pass %d: asked for %d terminations, callbacks saw %d, window %d", p, asked, seen, r.window)
		}
	}
	r.await(clock, 3, "test")
	if r.windowStalls == 0 {
		t.Error("a window of two directions never held the injector back")
	}
	if fin := r.finish(); !fin.correct {
		t.Errorf("not correct: %v", fin.problems)
	}
}

// TestTruncatedSliceIsLoss shows the check can fail: a slice cut short
// leaves flows without their tails, and the run reports the loss.
func TestTruncatedSliceIsLoss(t *testing.T) {
	fin := runTiny(t, workloads[0].scaled(testDiv), true)
	if fin.correct || fin.lossFrac <= 0 || fin.failed == 0 {
		t.Errorf("truncated slice: correct %v loss %v failed %d", fin.correct, fin.lossFrac, fin.failed)
	}
}

// TestBenchmarkJSONAgrees keeps BENCHMARK.json in step with the tables the
// harness reports from.
func TestBenchmarkJSONAgrees(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []jsonMetric `json:"end_to_end"`
		PerLayer  []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name {
			t.Errorf("workload %d: %q vs %q", i, doc.Workloads[i].Name, w.Name)
		}
	}
	check := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the harness", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: %+v vs %+v", kind, i, g, d)
			}
			if bounded && (g.Bound == nil || *g.Bound != d.Bound) {
				t.Errorf("%s %s: bound differs", kind, d.Name)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
}
