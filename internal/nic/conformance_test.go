package nic

// Backend conformance suite: the behavioral contract every capture
// backend must satisfy — batch delivery with payloads and timestamps
// intact, flow-affine queue steering, monotonic ingest stamps, filter
// add/remove semantics, drop accounting that balances against offered
// frames, and idempotent shutdown. Runs against the sim and pcap replay
// backends here (tier-1, hermetic); the AF_PACKET backend runs the same
// checks over a veth pair in afpacket_live_test.go under the "live" tag.

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"scap/internal/metrics"
	"scap/internal/pkt"
	"scap/internal/trace"
)

// confFrame is one offered frame: raw bytes at a source timestamp.
type confFrame struct {
	data []byte
	ts   int64
}

// confFlows builds per-flow TCP data frames: flows distinct 5-tuples,
// perFlow frames each, timestamps increasing across the whole set.
func confFlows(flows, perFlow int) []confFrame {
	var out []confFrame
	ts := int64(1)
	for i := 0; i < perFlow; i++ {
		for f := 0; f < flows; f++ {
			key := key4(fmt.Sprintf("10.1.%d.%d", f/250, f%250+1), uint16(2000+f), "10.9.0.1", 80)
			out = append(out, confFrame{
				data: pkt.BuildTCP(pkt.TCPSpec{Key: key, Seq: uint32(i * 8), Flags: pkt.FlagACK | pkt.FlagPSH, Payload: []byte{byte(f), byte(i), 3, 4, 5, 6, 7, 8}}),
				ts:   ts,
			})
			ts += 1000
		}
	}
	return out
}

// writeConfPcap writes frames as a classic pcap file and returns its path.
func writeConfPcap(t *testing.T, frames []confFrame) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "conf.pcap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := trace.NewPcapWriter(f, 0)
	for _, fr := range frames {
		if err := w.Write(fr.data, fr.ts); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// confBackendCase adapts one backend to the suite.
type confBackendCase struct {
	name string
	// dropsOnOverflow: a stalled consumer overflows a bounded ring and
	// drops (pcap replay, AF_PACKET); the sim instead backpressures the
	// feeder, so the overflow test does not apply.
	dropsOnOverflow bool
	// build returns an unopened backend that will deliver frames, plus a
	// run function to invoke after Open (it feeds source-less backends
	// and ends delivery: the sim is fed and closed; file backends stream
	// and hit EOF on their own).
	build func(t *testing.T, queues int, frames []confFrame) (Backend, func())
}

// feedSim drives the sim backend's injection surface the way the capture
// layer does: steer a burst into per-queue batches, deliver each.
func feedSim(s *Sim, frames []confFrame) {
	const burst = 16
	in := make([]Frame, 0, burst)
	out := make([][]Frame, s.Queues())
	for len(frames) > 0 {
		n := min(burst, len(frames))
		ingest := metrics.Nanotime()
		in = in[:0]
		for _, fr := range frames[:n] {
			in = append(in, Frame{Data: fr.data, TS: fr.ts, Ingest: ingest})
		}
		frames = frames[n:]
		s.ReceiveBatch(in, out)
		for q, b := range out {
			if len(b) > 0 {
				s.Deliver(q, b)
			}
			out[q] = nil
		}
	}
}

func conformanceCases() []confBackendCase {
	return []confBackendCase{
		{
			name: "sim",
			build: func(t *testing.T, queues int, frames []confFrame) (Backend, func()) {
				s := NewSim(Config{Queues: queues})
				return s, func() {
					feedSim(s, frames)
					s.Close()
				}
			},
		},
		{
			name:            "pcapreplay",
			dropsOnOverflow: true,
			build: func(t *testing.T, queues int, frames []confFrame) (Backend, func()) {
				path := writeConfPcap(t, frames)
				return NewPcapReplay(PcapReplayConfig{Path: path, Queues: queues}), func() {}
			},
		},
	}
}

// collectAll drains every Batches channel until closed, returning the
// delivered frames per queue in delivery order.
func collectAll(t *testing.T, be Backend) [][]Frame {
	t.Helper()
	got := make([][]Frame, be.Queues())
	var wg sync.WaitGroup
	for q := 0; q < be.Queues(); q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			for batch := range be.Batches(q) {
				if len(batch) == 0 {
					t.Error("empty batch delivered")
				}
				got[q] = append(got[q], batch...)
			}
		}(q)
	}
	wg.Wait()
	return got
}

// openAndRun opens the backend, runs the feeder concurrently with the
// collectors, and waits for Done.
func openAndRun(t *testing.T, be Backend, run func()) [][]Frame {
	t.Helper()
	if err := be.Open(); err != nil {
		t.Fatalf("Open: %v", err)
	}
	go run()
	got := collectAll(t, be)
	<-be.Done()
	return got
}

func TestConformanceDelivery(t *testing.T) {
	for _, c := range conformanceCases() {
		t.Run(c.name, func(t *testing.T) {
			const queues, flows, perFlow = 4, 37, 10
			frames := confFlows(flows, perFlow)
			be, run := c.build(t, queues, frames)
			if got := be.Queues(); got != queues {
				t.Fatalf("Queues() = %d, want %d", got, queues)
			}
			caps := be.Capabilities()
			if caps.RSSQueues != queues {
				t.Errorf("Capabilities.RSSQueues = %d, want %d", caps.RSSQueues, queues)
			}
			if !caps.HasFilters() {
				t.Error("Capabilities.HasFilters() = false; every backend models a filter table")
			}
			got := openAndRun(t, be, run)
			total := 0
			// Flow affinity: every frame of a flow must land on one queue.
			// The first payload byte is the flow index.
			flowQueue := make(map[byte]int)
			for q, fs := range got {
				total += len(fs)
				for _, f := range fs {
					if len(f.Data) < pkt.EthernetHeaderLen {
						t.Fatalf("queue %d delivered a truncated frame (%d bytes)", q, len(f.Data))
					}
					flowID := f.Data[len(f.Data)-8]
					if prev, ok := flowQueue[flowID]; ok && prev != q {
						t.Fatalf("flow %d split across queues %d and %d", flowID, prev, q)
					}
					flowQueue[flowID] = q
					if f.TS <= 0 {
						t.Fatalf("frame delivered with TS %d", f.TS)
					}
				}
			}
			if want := flows * perFlow; total != want {
				t.Fatalf("delivered %d frames, want %d (stats %+v)", total, want, be.Stats())
			}
			if s := be.Stats(); s.Received != uint64(flows*perFlow) {
				t.Errorf("Stats().Received = %d, want %d", s.Received, flows*perFlow)
			}
			if err := be.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
			if err := be.Close(); err != nil {
				t.Errorf("second Close: %v", err)
			}
		})
	}
}

// TestConformanceSameSteering: the model NIC and the software shim hash
// with the same per-key table, so a capture and its replay put every flow
// on the same queue.
func TestConformanceSameSteering(t *testing.T) {
	const queues, flows = 8, 200
	frames := confFlows(flows, 2)
	var ref map[byte]int
	for _, c := range conformanceCases() {
		be, run := c.build(t, queues, frames)
		flowQueue := make(map[byte]int)
		for q, fs := range openAndRun(t, be, run) {
			for _, f := range fs {
				flowQueue[f.Data[len(f.Data)-8]] = q
			}
		}
		be.Close()
		if len(flowQueue) != flows {
			t.Fatalf("%s delivered %d flows, want %d", c.name, len(flowQueue), flows)
		}
		if ref == nil {
			ref = flowQueue
			continue
		}
		for id, q := range flowQueue {
			if ref[id] != q {
				t.Errorf("flow %d: %s steers to queue %d, %s to %d", id, c.name, q, conformanceCases()[0].name, ref[id])
			}
		}
	}
}

func TestConformanceIngestMonotone(t *testing.T) {
	for _, c := range conformanceCases() {
		t.Run(c.name, func(t *testing.T) {
			frames := confFlows(11, 20)
			be, run := c.build(t, 2, frames)
			got := openAndRun(t, be, run)
			for q, fs := range got {
				var last int64
				for i, f := range fs {
					if f.Ingest <= 0 {
						t.Fatalf("queue %d frame %d: Ingest = %d, want > 0", q, i, f.Ingest)
					}
					if f.Ingest < last {
						t.Fatalf("queue %d frame %d: Ingest went backwards (%d after %d)", q, i, f.Ingest, last)
					}
					last = f.Ingest
				}
			}
			be.Close()
		})
	}
}

func TestConformanceFilters(t *testing.T) {
	for _, c := range conformanceCases() {
		t.Run(c.name, func(t *testing.T) {
			const perFlow = 25
			dropKey := key4("10.1.0.1", 2000, "10.9.0.1", 80) // flow index 0 in confFlows
			frames := confFlows(2, perFlow)                   // flows 0 and 1
			be, run := c.build(t, 1, frames)
			if _, _, err := be.AddFilter(FilterSpec{Key: dropKey, Action: ActionDrop}); err != nil {
				t.Fatalf("AddFilter: %v", err)
			}
			if p, s := be.FilterCount(); p != 1 || s != 0 {
				t.Fatalf("FilterCount = (%d, %d), want (1, 0)", p, s)
			}
			got := openAndRun(t, be, run)
			total := 0
			for _, fs := range got {
				total += len(fs)
				for _, f := range fs {
					if f.Data[len(f.Data)-8] == 0 {
						t.Fatal("a filtered flow's frame was delivered")
					}
				}
			}
			if total != perFlow {
				t.Errorf("delivered %d frames, want %d (only the unfiltered flow)", total, perFlow)
			}
			st := be.Stats()
			if st.DroppedFilter != perFlow {
				t.Errorf("Stats().DroppedFilter = %d, want %d", st.DroppedFilter, perFlow)
			}
			if st.Received != 2*perFlow {
				t.Errorf("Stats().Received = %d, want %d", st.Received, 2*perFlow)
			}
			if n := be.RemoveFilters(dropKey, false); n != 1 {
				t.Errorf("RemoveFilters = %d, want 1", n)
			}
			if p, s := be.FilterCount(); p != 0 || s != 0 {
				t.Errorf("FilterCount after removal = (%d, %d), want (0, 0)", p, s)
			}
			be.Close()
		})
	}
}

func TestConformanceOverflowDrops(t *testing.T) {
	for _, c := range conformanceCases() {
		if !c.dropsOnOverflow {
			continue
		}
		t.Run(c.name, func(t *testing.T) {
			// A tiny staging ring with no consumer: the source must drop
			// rather than block or grow without bound, and the accounting
			// must balance once everything is drained.
			const offered = 30000
			frames := confFlows(5, offered/5)
			path := writeConfPcap(t, frames)
			be := NewPcapReplay(PcapReplayConfig{Path: path, Queues: 1, RingBytes: 4096})
			if err := be.Open(); err != nil {
				t.Fatalf("Open: %v", err)
			}
			// Wait until the reader has offered every frame (it never
			// blocks: full rings drop), then drain.
			for be.Stats().Received < offered {
				runtime.Gosched()
			}
			got := collectAll(t, be)
			<-be.Done()
			st := be.Stats()
			if st.DroppedRing == 0 {
				t.Fatal("no ring-overflow drops with a 4 KB ring and a stalled consumer")
			}
			delivered := uint64(len(got[0]))
			if sum := delivered + st.DroppedRing + st.DroppedFilter + st.DecodeFailures; sum != st.Received {
				t.Errorf("accounting imbalance: delivered %d + drops %d+%d+%d != received %d",
					delivered, st.DroppedRing, st.DroppedFilter, st.DecodeFailures, st.Received)
			}
			if err := be.Err(); err != nil {
				t.Errorf("Err: %v", err)
			}
			be.Close()
		})
	}
}

func TestConformanceCloseBeforeOpen(t *testing.T) {
	for _, c := range conformanceCases() {
		t.Run(c.name, func(t *testing.T) {
			be, _ := c.build(t, 2, nil)
			if err := be.Close(); err != nil {
				t.Fatalf("Close before Open: %v", err)
			}
			select {
			case <-be.Done():
			default:
				t.Error("Done not closed after Close")
			}
			for q := 0; q < be.Queues(); q++ {
				if _, ok := <-be.Batches(q); ok {
					t.Errorf("queue %d channel still delivering after Close", q)
				}
			}
		})
	}
}

func TestPcapReplayPasses(t *testing.T) {
	frames := confFlows(3, 4)
	path := writeConfPcap(t, frames)
	be := NewPcapReplay(PcapReplayConfig{Path: path, Queues: 2, Passes: 3})
	got := openAndRun(t, be, func() {})
	total := 0
	for _, fs := range got {
		total += len(fs)
		var last int64
		for _, f := range fs {
			if f.TS <= last {
				t.Fatal("timestamps not monotonic across passes")
			}
			last = f.TS
		}
	}
	if want := 3 * len(frames); total != want {
		t.Fatalf("delivered %d frames over 3 passes, want %d", total, want)
	}
	if err := be.Err(); err != nil {
		t.Errorf("Err: %v", err)
	}
	be.Close()
}

func TestPcapReplayMissingFile(t *testing.T) {
	be := NewPcapReplay(PcapReplayConfig{Path: filepath.Join(t.TempDir(), "absent.pcap")})
	if err := be.Open(); err == nil {
		t.Fatal("Open succeeded on a missing file")
	}
	if err := be.Close(); err != nil {
		t.Fatalf("Close after failed Open: %v", err)
	}
}
