package nic

// The burst path against the ring path: Sim.ReceiveBatch must be
// ReceiveAt+Poll in every observable respect — which frames reach which
// queue in which order, the counters, the filter table, the balancer — and
// the recycled fan-out batches must never leak one delivery into another.

import (
	"bytes"
	"fmt"
	"net/netip"
	"sort"
	"sync"
	"testing"

	"scap/internal/metrics"
	"scap/internal/pkt"
)

// traceOp is one step of the differential trace: a frame offered at ts, or
// (frame nil) a filter operation applied between frames.
type traceOp struct {
	frame  []byte
	ts     int64
	add    *FilterSpec
	remove *pkt.FlowKey
}

func key6(a string, ap uint16, b string, bp uint16, proto uint8) pkt.FlowKey {
	return pkt.FlowKey{SrcIP: netip.MustParseAddr(a), DstIP: netip.MustParseAddr(b), SrcPort: ap, DstPort: bp, Proto: proto}
}

// mixedTrace builds a trace that reaches every branch of steerLocked: TCP
// and UDP over IPv4 and IPv6, an IPv4 datagram arriving as fragments, frames
// that do not decode, a drop-filter pair with flex matches installed and
// later removed mid-trace, an explicit redirect filter, and enough SYNs
// aimed at one RSS queue that the balancer redirects connections, which
// then close by FIN+FIN and by RST.
func mixedTrace(probe *NIC) []traceOp {
	var ops []traceOp
	ts := int64(1000)
	frame := func(b []byte) {
		ts += 700
		ops = append(ops, traceOp{frame: b, ts: ts})
	}
	tcp := func(k pkt.FlowKey, seq uint32, flags uint8, payload string) {
		frame(pkt.BuildTCP(pkt.TCPSpec{Key: k, Seq: seq, Flags: flags, Payload: []byte(payload)}))
	}

	// A filtered flow: ACK and ACK|PSH dropped at the NIC, FIN passes.
	filtered := key4("10.2.0.1", 4000, "10.9.0.9", 443)
	for _, fl := range []uint8{pkt.FlagACK, pkt.FlagACK | pkt.FlagPSH} {
		ops = append(ops, traceOp{add: &FilterSpec{Key: filtered, Flex: FlexOnlyFlags(fl), Action: ActionDrop, Deadline: 1 << 40}})
	}
	// An explicitly redirected flow.
	steered := key4("10.2.0.2", 4001, "10.9.0.9", 443)
	ops = append(ops, traceOp{add: &FilterSpec{Key: steered, Action: ActionQueue, Queue: (probe.QueueFor(steered) + 1) % probe.Queues()}})

	// Connections that all hash to one queue, so the balancer has to act.
	hot := probe.QueueFor(flowN(0))
	var conns []pkt.FlowKey
	for i := 0; len(conns) < 120; i++ {
		if k := flowN(i); probe.QueueFor(k) == hot {
			conns = append(conns, k)
		}
	}
	for i, k := range conns {
		tcp(k, 1, pkt.FlagSYN, "")
		tcp(k.Reverse(), 1, pkt.FlagSYN|pkt.FlagACK, "")
		tcp(k, 2, pkt.FlagACK|pkt.FlagPSH, "request")
		tcp(k.Reverse(), 2, pkt.FlagACK|pkt.FlagPSH, "response")
		switch i % 3 {
		case 0:
			tcp(k, 9, pkt.FlagFIN|pkt.FlagACK, "")
			tcp(k.Reverse(), 10, pkt.FlagFIN|pkt.FlagACK, "")
		case 1:
			tcp(k, 9, pkt.FlagRST, "")
		}
		if i%10 == 0 {
			tcp(filtered, uint32(i), pkt.FlagACK|pkt.FlagPSH, "dropped at the NIC")
			tcp(filtered, uint32(i), pkt.FlagACK, "")
			tcp(steered, uint32(i), pkt.FlagACK|pkt.FlagPSH, "steered")
			frame(pkt.BuildUDP(pkt.UDPSpec{Key: pkt.FlowKey{SrcIP: k.SrcIP, DstIP: k.DstIP, SrcPort: 53, DstPort: 5353, Proto: pkt.ProtoUDP}, Payload: []byte("dns")}))
			tcp(key6("2001:db8::1", uint16(2000+i), "2001:db8::2", 80, pkt.ProtoTCP), 1, pkt.FlagSYN, "")
			frame(pkt.BuildUDP(pkt.UDPSpec{Key: key6("2001:db8::3", uint16(2000+i), "2001:db8::4", 53, pkt.ProtoUDP), Payload: []byte("v6 dns")}))
			frame([]byte{1, 2, 3})
			// A datagram in three fragments, out of order, with other
			// traffic in between.
			whole := pkt.BuildUDP(pkt.UDPSpec{Key: pkt.FlowKey{SrcIP: k.SrcIP, DstIP: k.DstIP, SrcPort: 7000, DstPort: 7001, Proto: pkt.ProtoUDP}, IPID: uint16(i + 1), Payload: bytes.Repeat([]byte{byte(i)}, 2500)})
			frags := pkt.FragmentIPv4(whole, 1000)
			frame(frags[1])
			tcp(k, 3, pkt.FlagACK, "")
			frame(frags[2])
			frame(frags[0])
		}
		if i == 60 {
			ops = append(ops, traceOp{remove: &filtered})
			tcp(filtered, 77, pkt.FlagACK, "passes again")
		}
	}
	tcp(filtered, 99, pkt.FlagFIN|pkt.FlagACK, "")
	return ops
}

// runTrace feeds ops to s and returns the per-queue delivery order. burst 0
// is the ring path, one ReceiveAt+Poll per frame; otherwise frames go
// through ReceiveBatch in bursts of that size (a filter op ends the burst,
// so both paths apply it between the same two frames).
func runTrace(t *testing.T, s *Sim, ops []traceOp, burst int) [][]Frame {
	t.Helper()
	got := make([][]Frame, s.Queues())
	var pending []Frame
	flush := func() {
		out := make([][]Frame, s.Queues())
		s.ReceiveBatch(pending, out)
		for q, b := range out {
			got[q] = append(got[q], b...)
			if b != nil {
				s.Recycle(b)
			}
		}
		pending = pending[:0]
	}
	for i, op := range ops {
		ingest := int64(i/16 + 1) // the capture layer stamps a burst, not a frame
		switch {
		case op.add != nil:
			flush()
			if _, _, err := s.AddFilter(*op.add); err != nil {
				t.Fatal(err)
			}
		case op.remove != nil:
			flush()
			s.RemoveFilters(*op.remove, false)
		case burst == 0:
			if q := s.ReceiveAt(op.frame, op.ts, ingest); q >= 0 {
				f, ok := s.Poll(q)
				if !ok {
					t.Fatalf("queue %d empty after ReceiveAt", q)
				}
				got[q] = append(got[q], f)
			}
		default:
			pending = append(pending, Frame{Data: op.frame, TS: op.ts, Ingest: ingest})
			if len(pending) == burst {
				flush()
			}
		}
	}
	flush()
	return got
}

// flightKey flattens the device's flight records to comparable strings,
// without their wall-clock stamps.
func flightKey(reg *metrics.Registry) []string {
	var out []string
	for _, r := range reg.Flight().Snapshot() {
		out = append(out, fmt.Sprintf("%s core=%d %d %d", r.KindName, r.Core, r.Value, r.Aux))
	}
	sort.Strings(out)
	return out
}

func TestReceiveBatchMatchesReceiveAtPoll(t *testing.T) {
	cfg := Config{Queues: 4, DynamicBalance: true, Defragment: true}
	ops := mixedTrace(New(cfg))

	newDev := func() (*Sim, *metrics.Registry) {
		s := NewSim(cfg)
		reg := metrics.NewRegistry(cfg.Queues)
		s.PublishMetrics(reg)
		return s, reg
	}
	ref, refReg := newDev()
	want := runTrace(t, ref, ops, 0)
	wantStats := ref.Stats()
	if wantStats.DecodeFailures == 0 || wantStats.DroppedFilter == 0 || wantStats.Redirected == 0 || ref.lb.Redirects == 0 {
		t.Fatalf("trace does not reach every branch: stats %+v, balancer redirects %d", wantStats, ref.lb.Redirects)
	}
	wantFlight := flightKey(refReg)
	reassembled := 0
	for _, fs := range want {
		for _, f := range fs {
			if len(f.Data) > 2500 {
				reassembled++
			}
		}
	}
	if reassembled == 0 || len(wantFlight) == 0 {
		t.Fatalf("trace delivered %d reassembled datagrams and %d flight records, want both nonzero", reassembled, len(wantFlight))
	}

	for _, burst := range []int{1, 7, 64} {
		t.Run(fmt.Sprintf("burst=%d", burst), func(t *testing.T) {
			dev, reg := newDev()
			got := runTrace(t, dev, ops, burst)
			for q := range want {
				if len(got[q]) != len(want[q]) {
					t.Fatalf("queue %d: %d frames, ring path delivered %d", q, len(got[q]), len(want[q]))
				}
				for i, w := range want[q] {
					g := got[q][i]
					if !bytes.Equal(g.Data, w.Data) || g.TS != w.TS || g.Ingest != w.Ingest {
						t.Fatalf("queue %d frame %d: got (%d bytes, ts %d, ingest %d), want (%d bytes, ts %d, ingest %d)",
							q, i, len(g.Data), g.TS, g.Ingest, len(w.Data), w.TS, w.Ingest)
					}
				}
			}
			if s := dev.Stats(); s != wantStats {
				t.Errorf("Stats = %+v, ring path %+v", s, wantStats)
			}
			gp, gs := dev.FilterCount()
			wp, ws := ref.FilterCount()
			if gp != wp || gs != ws {
				t.Errorf("FilterCount = (%d, %d), ring path (%d, %d)", gp, gs, wp, ws)
			}
			if dev.lb.Redirects != ref.lb.Redirects || len(dev.lb.flows) != len(ref.lb.flows) {
				t.Errorf("balancer: %d redirects, %d tracked; ring path %d, %d",
					dev.lb.Redirects, len(dev.lb.flows), ref.lb.Redirects, len(ref.lb.flows))
			}
			if gf := flightKey(reg); fmt.Sprint(gf) != fmt.Sprint(wantFlight) {
				t.Errorf("flight records differ:\n got %v\nwant %v", gf, wantFlight)
			}
		})
	}
}

// TestReceiveBatchClosesRingFullEpisode pins the one ring side effect the
// burst path keeps: a queue whose ring overflowed on the ring path reports
// its recovery when the next frame is accepted, whichever path carries it.
func TestReceiveBatchClosesRingFullEpisode(t *testing.T) {
	s := NewSim(Config{Queues: 1, QueueDepth: 1})
	reg := metrics.NewRegistry(1)
	s.PublishMetrics(reg)
	frame := pkt.BuildTCP(pkt.TCPSpec{Key: key4("10.0.0.1", 1, "10.0.0.2", 2), Flags: pkt.FlagACK})
	s.Receive(frame, 10)
	s.Receive(frame, 20) // ring full: episode opens
	out := make([][]Frame, 1)
	s.ReceiveBatch([]Frame{{Data: frame, TS: 50}}, out)
	if len(out[0]) != 1 {
		t.Fatalf("burst path delivered %d frames, want 1", len(out[0]))
	}
	var kinds []string
	for _, r := range reg.Flight().Snapshot() {
		kinds = append(kinds, fmt.Sprintf("%s %d %d", r.KindName, r.Value, r.Aux))
	}
	if want := "[nic_ring_full 1 0 nic_ring_recover 1 30]"; fmt.Sprint(kinds) != want {
		t.Errorf("flight records %v, want %s", kinds, want)
	}
}

// TestReceiveBatchConcurrent runs four injectors against engines that add
// and remove filters and a reader polling Stats, under -race in CI; every
// frame must be accounted for exactly once.
func TestReceiveBatchConcurrent(t *testing.T) {
	const injectors, bursts, burst = 4, 200, 32
	s := NewSim(Config{Queues: 4, DynamicBalance: true})
	var delivered [4]int
	var consumers sync.WaitGroup
	for q := 0; q < s.Queues(); q++ {
		consumers.Add(1)
		go func(q int) {
			defer consumers.Done()
			for b := range s.Batches(q) {
				delivered[q] += len(b)
				s.Recycle(b)
			}
		}(q)
	}
	stop := make(chan struct{})
	var helpers sync.WaitGroup
	for e := 0; e < 2; e++ {
		helpers.Add(1)
		go func(e int) {
			defer helpers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Filters on tuples no injector sends, so nothing is dropped.
				k := key4("172.16.0.1", uint16(e*1000+i%500), "172.16.0.2", 80)
				if _, _, err := s.AddFilter(FilterSpec{Key: k, Action: ActionDrop, Deadline: int64(i)}); err != nil {
					t.Error(err)
					return
				}
				s.RemoveFilters(k, false)
			}
		}(e)
	}
	helpers.Add(1)
	go func() {
		defer helpers.Done()
		var last uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			if r := s.Stats().Received; r < last {
				t.Errorf("Received went backwards: %d after %d", r, last)
				return
			} else {
				last = r
			}
		}
	}()
	var inj sync.WaitGroup
	for g := 0; g < injectors; g++ {
		inj.Add(1)
		go func(g int) {
			defer inj.Done()
			in := make([]Frame, burst)
			out := make([][]Frame, s.Queues())
			for b := 0; b < bursts; b++ {
				for i := range in {
					k := flowN(g*10000 + (b*burst+i)%3000)
					flags := uint8(pkt.FlagACK)
					if i%8 == 0 {
						flags = pkt.FlagSYN
					}
					in[i] = Frame{Data: pkt.BuildTCP(pkt.TCPSpec{Key: k, Flags: flags}), TS: int64(b*burst + i + 1), Ingest: 1}
				}
				s.ReceiveBatch(in, out)
				for q, batch := range out {
					if len(batch) > 0 {
						s.Deliver(q, batch)
					}
					out[q] = nil
				}
			}
		}(g)
	}
	inj.Wait()
	close(stop)
	helpers.Wait()
	s.Close()
	consumers.Wait()
	total := 0
	for _, d := range delivered {
		total += d
	}
	st := s.Stats()
	if want := injectors * bursts * burst; total != want || st.Received != uint64(want) {
		t.Errorf("delivered %d, Received %d, want %d (stats %+v)", total, st.Received, want, st)
	}
}

// TestRecycledBatchesNeverLeak poisons every batch on its way back to the
// free list. A delivered frame that reads as poison means a recycled batch
// was still visible to a consumer, or ReceiveBatch did not start from an
// empty slice.
func TestRecycledBatchesNeverLeak(t *testing.T) {
	s := NewSim(Config{Queues: 2})
	poison := []byte("poison")
	frames := make([]Frame, 48)
	for i := range frames {
		frames[i] = Frame{Data: pkt.BuildTCP(pkt.TCPSpec{Key: flowN(i), Flags: pkt.FlagACK}), Ingest: 1}
	}
	out := make([][]Frame, s.Queues())
	var ts int64
	for round := 0; round < 50; round++ {
		n := 1 + round%len(frames) // varying burst sizes reuse batches at different lengths
		for i := range frames[:n] {
			ts++
			frames[i].TS = ts
		}
		s.ReceiveBatch(frames[:n], out)
		seen := 0
		for q, b := range out {
			for _, f := range b {
				if f.TS <= ts-int64(n) || f.TS > ts || bytes.Equal(f.Data, poison) {
					t.Fatalf("round %d queue %d: stale frame (ts %d, data %q) in a recycled batch", round, q, f.TS, f.Data[:6])
				}
				seen++
			}
			if b != nil {
				// Poison the whole capacity, then hand it back: Recycle must
				// clear what it was given and the next user must not see the
				// rest.
				full := b[:cap(b)]
				for i := range full {
					full[i] = Frame{Data: poison, TS: -1}
				}
				s.Recycle(b)
			}
			out[q] = nil
		}
		if seen != n {
			t.Fatalf("round %d: %d frames delivered, want %d", round, seen, n)
		}
	}
}

// TestReceiveBatchAllocatesNothing pins the steady state: once the fan-out
// batches exist, steering a burst into them and recycling them is free.
func TestReceiveBatchAllocatesNothing(t *testing.T) {
	s := NewSim(Config{Queues: 4, DynamicBalance: true})
	frames := make([]Frame, 64)
	for i := range frames {
		frames[i] = Frame{Data: pkt.BuildTCP(pkt.TCPSpec{Key: flowN(i), Flags: pkt.FlagACK, Payload: []byte("x")}), TS: int64(i + 1), Ingest: 1}
	}
	var stack [4][]Frame
	burst := func() {
		out := stack[:]
		s.ReceiveBatch(frames, out)
		for q, b := range out {
			if b != nil {
				s.Recycle(b)
			}
			out[q] = nil
		}
	}
	burst() // the first burst allocates the batches
	if allocs := testing.AllocsPerRun(100, burst); allocs != 0 {
		t.Errorf("ReceiveBatch into recycled batches: %v allocs per burst, want 0", allocs)
	}
}

// churnFrames builds a connection-churn workload: SYN, SYN-ACK, data, FIN,
// FIN over tuples distinct connections, interleaved in blocks of 4096 (all
// their SYNs, then all their SYN-ACKs, …) so that thousands of connections
// are open at once and the balancer's admit and close, three frames in
// five, work on a populated table.
func churnFrames(tuples int) [][]byte {
	const open = 4096
	frames := make([][]byte, 0, 5*tuples)
	payload := make([]byte, 100)
	for base := 0; base < tuples; base += open {
		for step := 0; step < 5; step++ {
			for i := base; i < min(base+open, tuples); i++ {
				k := pkt.FlowKey{
					SrcIP:   netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}),
					DstIP:   netip.AddrFrom4([4]byte{192, 168, byte(i >> 8), byte(i)}),
					SrcPort: uint16(1024 + i%60000), DstPort: 80, Proto: pkt.ProtoTCP,
				}
				spec := pkt.TCPSpec{Key: k, Seq: 1, Flags: pkt.FlagSYN}
				switch step {
				case 1:
					spec = pkt.TCPSpec{Key: k.Reverse(), Seq: 1, Flags: pkt.FlagSYN | pkt.FlagACK}
				case 2:
					spec = pkt.TCPSpec{Key: k, Seq: 2, Flags: pkt.FlagACK | pkt.FlagPSH, Payload: payload}
				case 3:
					spec = pkt.TCPSpec{Key: k, Seq: 102, Flags: pkt.FlagFIN | pkt.FlagACK}
				case 4:
					spec = pkt.TCPSpec{Key: k.Reverse(), Seq: 2, Flags: pkt.FlagFIN | pkt.FlagACK}
				}
				frames = append(frames, pkt.BuildTCP(spec))
			}
		}
	}
	return frames
}

// benchFrames is the two receive workloads: one established flow of full
// frames (steering alone), and connection churn (steering plus the
// balancer's map work).
func benchFrames(b *testing.B, churn bool) [][]byte {
	b.Helper()
	if churn {
		return churnFrames(16384)
	}
	return [][]byte{pkt.BuildTCP(pkt.TCPSpec{
		Key:     key4("10.1.2.3", 4444, "10.3.2.1", 80),
		Flags:   pkt.FlagACK,
		Payload: make([]byte, 1400),
	})}
}

func benchReceive(b *testing.B, churn bool) {
	frames := benchFrames(b, churn)
	n := New(Config{Queues: 8, QueueDepth: 64, DynamicBalance: true})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if q := n.Receive(frames[i%len(frames)], int64(i)); q >= 0 {
			n.Poll(q)
		}
	}
}

func benchReceiveBatch(b *testing.B, churn bool) {
	const burst = 64
	frames := benchFrames(b, churn)
	s := NewSim(Config{Queues: 8, DynamicBalance: true})
	var in [burst]Frame
	var out [8][]Frame
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += burst {
		for j := range in {
			in[j] = Frame{Data: frames[(i+j)%len(frames)], TS: int64(i + j), Ingest: 1}
		}
		s.ReceiveBatch(in[:], out[:])
		for q, batch := range out {
			if batch != nil {
				s.Recycle(batch)
				out[q] = nil
			}
		}
	}
}

// BenchmarkReceive is the ring path, one ReceiveAt+Poll per frame (what
// internal/sim and the benchmark's layer replay drive); one b.N unit is
// one frame in all four receive benchmarks.
func BenchmarkReceive(b *testing.B)           { benchReceive(b, false) }
func BenchmarkReceiveChurn(b *testing.B)      { benchReceive(b, true) }
func BenchmarkReceiveBatch(b *testing.B)      { benchReceiveBatch(b, false) }
func BenchmarkReceiveBatchChurn(b *testing.B) { benchReceiveBatch(b, true) }

var hashSink uint32

// BenchmarkToeplitz compares the bit-serial specification with the per-key
// table on the two tuple lengths a packet path hashes.
func BenchmarkToeplitz(b *testing.B) {
	key := SymmetricRSSKey(0x6d5a)
	table := newRSSTable(&key)
	var input [rssInputMax]byte
	for i := range input {
		input[i] = byte(i*37 + 11)
	}
	for _, c := range []struct {
		name string
		n    int
	}{{"ipv4", 12}, {"ipv6", 36}} {
		b.Run("bitserial/"+c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				input[0] = byte(i)
				hashSink ^= Toeplitz(&key, input[:c.n])
			}
		})
		b.Run("table/"+c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				input[0] = byte(i)
				hashSink ^= table.hash(input[:c.n])
			}
		})
	}
}
