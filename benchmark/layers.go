package main

import (
	"math/rand"
	"runtime"
	"sync"
	"time"

	"scap/internal/bpf"
	"scap/internal/core"
	"scap/internal/event"
	"scap/internal/flowtab"
	"scap/internal/mem"
	"scap/internal/metrics"
	"scap/internal/nic"
	"scap/internal/pkt"
	"scap/internal/reassembly"
	"scap/internal/sketch"
	"scap/internal/streamscope"
	"scap/internal/trace"
)

// The layer replay feeds each module's public functions the workload's own
// packet sequence from one goroutine, so a layer's cost is specific to the
// workload (its frame sizes, key reuse, segment order). Every figure is the
// median over minReps or more repetitions of the whole sample — fewer (never
// under fewReps) only when a kernel runs so slowly that minReps would take
// more than three times its share of the replay budget.
const (
	maxSampleFrames = 1 << 16
	minReps         = 30
	fewReps         = 5
)

// layerSample is the leading part of one pass, decoded once.
type layerSample struct {
	frames [][]byte
	ts     []int64
	pkts   []pkt.Packet
	keys   []pkt.FlowKey // distinct stream directions, in first-seen order
	dirs   []dirSegs     // TCP directions with their segments in arrival order

	payloadPkts int // packets carrying payload
	tcpSegs     int // TCP segments carrying payload
}

type dirSegs struct {
	isn  uint32
	segs []seqSeg
}

type seqSeg struct {
	seq  uint32
	data []byte
}

func newLayerSample(frames [][]byte) *layerSample {
	n := min(len(frames), maxSampleFrames)
	s := &layerSample{frames: frames[:n], ts: make([]int64, n), pkts: make([]pkt.Packet, n)}
	byKey := make(map[pkt.FlowKey]int)
	var ts int64
	for i, f := range s.frames {
		ts += int64(float64(len(f)+24) * 8e9 / satLinkBps)
		s.ts[i] = ts
		p := &s.pkts[i]
		if err := pkt.Decode(f, p); err != nil {
			panic(err) // the reference pass already decoded every frame
		}
		p.Timestamp = ts
		di, ok := byKey[p.Key]
		if !ok {
			di = len(s.keys)
			byKey[p.Key] = di
			s.keys = append(s.keys, p.Key)
			s.dirs = append(s.dirs, dirSegs{})
		}
		if len(p.Payload) > 0 {
			s.payloadPkts++
		}
		if p.Key.Proto != pkt.ProtoTCP {
			continue
		}
		if p.TCPFlags&pkt.FlagSYN != 0 {
			s.dirs[di].isn = p.Seq
		} else if len(p.Payload) > 0 {
			s.tcpSegs++
			s.dirs[di].segs = append(s.dirs[di].segs, seqSeg{p.Seq, p.Payload})
		}
	}
	return s
}

// enoughReps decides when a kernel has been repeated enough: minReps and
// the budget spent, or fewReps once three budgets are gone.
func enoughReps(reps int, elapsed, budget time.Duration) bool {
	if reps >= 1000 || (reps >= fewReps && elapsed >= 3*budget) {
		return true
	}
	return reps >= minReps && elapsed >= budget
}

// measure repeats fn and returns the median nanoseconds per call.
func measure(budget time.Duration, fn func()) float64 {
	fn() // warm caches and lazily built state
	var times []float64
	start := nowNS()
	for !enoughReps(len(times), time.Duration(nowNS()-start), budget) {
		t0 := nowNS()
		fn()
		times = append(times, float64(nowNS()-t0))
	}
	return median(times)
}

var layerSink uint64

// engineConfig is the engine configuration the workload's socket runs.
func engineConfig(w workloadSpec) core.Config {
	cfg := core.Config{Cutoff: core.CutoffUnlimited, Mode: reassembly.ModeFast, ChunkSize: w.ChunkSize, UseFDIR: w.FDIR,
		InactivityTimeout: inactivityTimeout}
	if w.Strict {
		cfg.Mode = reassembly.ModeStrict
	}
	if w.Cutoff >= 0 {
		cfg.Cutoff = w.Cutoff
	}
	cfg.Sketch.Enabled = w.Sketch
	return cfg
}

func newModelNIC(w workloadSpec) *nic.NIC {
	return nic.New(nic.Config{Queues: 2, Defragment: w.Strict, DynamicBalance: true})
}

// engineReplay is the single-threaded baseline: a fresh engine handles the
// sample in 64-frame batches while the same goroutine drains its event
// queue and returns the blocks, as a worker would. It returns the time in
// HandleFrames, draining and Shutdown, per repetition.
type engineReplay struct {
	w      workloadSpec
	s      *layerSample
	mm     *mem.Manager
	q      *event.Queue
	scope  bool
	batch  []nic.Frame
	evs    []event.Event
	blocks []mem.Handle
	events uint64
	chunks uint64
}

func newEngineReplay(w workloadSpec, s *layerSample, mm *mem.Manager, scope bool) *engineReplay {
	return &engineReplay{w: w, s: s, mm: mm, q: event.NewQueue(0), scope: scope,
		batch: make([]nic.Frame, 0, satBatch), evs: make([]event.Event, 256)}
}

func (r *engineReplay) drain() {
	for {
		n := r.q.PopBatch(r.evs)
		if n == 0 {
			return
		}
		release := 0
		r.blocks = r.blocks[:0]
		for i := range r.evs[:n] {
			ev := &r.evs[i]
			r.events++
			if ev.Type == event.Data {
				r.chunks++
			}
			release += ev.Accounted
			if ev.Block != mem.NoBlock {
				r.blocks = append(r.blocks, ev.Block)
			}
		}
		clear(r.evs[:n])
		if release > 0 {
			r.mm.Release(release)
		}
		r.mm.ReturnBlocks(0, r.blocks)
	}
}

// run performs one repetition and returns the nanoseconds spent inside the
// engine and the drain.
func (r *engineReplay) run() int64 {
	opts := core.Options{Config: engineConfig(r.w), Mem: r.mm, Queue: r.q, Rand: rand.New(rand.NewSource(1))}
	var dev *nic.NIC
	if r.w.FDIR {
		// The engine installs drop filters in this NIC, and frames pass its
		// filter table first (untimed here), so the engine sees what the
		// cutoff workload's engines see.
		dev = newModelNIC(r.w)
		opts.NIC = dev
	}
	if r.scope {
		opts.Scope = streamscope.New(streamscope.Options{Cores: 1})
	}
	r.events, r.chunks = 0, 0
	var spent int64
	t0 := nowNS()
	eng := core.NewEngine(opts)
	spent += nowNS() - t0
	s := r.s
	for i := 0; i < len(s.frames); i += satBatch {
		r.batch = r.batch[:0]
		for k := i; k < min(i+satBatch, len(s.frames)); k++ {
			if dev != nil {
				q := dev.ReceiveAt(s.frames[k], s.ts[k], 0)
				if q < 0 {
					continue
				}
				dev.Poll(q)
			}
			r.batch = append(r.batch, nic.Frame{Data: s.frames[k], TS: s.ts[k]})
		}
		t0 = nowNS()
		eng.HandleFrames(r.batch)
		r.drain()
		spent += nowNS() - t0
	}
	t0 = nowNS()
	eng.Shutdown()
	r.drain()
	eng.DrainControls()
	spent += nowNS() - t0
	return spent
}

// replayLayers runs every layer kernel over the sample, spending about
// budget in total, and returns the per-layer figures by metric name.
func replayLayers(w workloadSpec, frames [][]byte, budget time.Duration, tr *tracer) map[string]float64 {
	out := make(map[string]float64)
	s := newLayerSample(frames)
	n := float64(len(s.frames))
	const kernels = 18
	per := budget / kernels
	span := func(name string) func() {
		if tr == nil {
			return func() {}
		}
		id := tr.begin("replay:" + name)
		return func() { tr.end(id, nil) }
	}

	// pkt
	done := span("pkt")
	var p pkt.Packet
	ns := measure(per, func() {
		for _, f := range s.frames {
			_ = pkt.Decode(f, &p)
			layerSink += uint64(p.Key.SrcPort)
		}
	})
	out["pkt.decode_ns_per_frame"] = ns / n
	ns = measure(per, func() {
		for i := range s.pkts {
			layerSink += pkt.Mix64(s.pkts[i].Key.Hash(0x5ca9))
		}
	})
	out["pkt.flowhash_ns_per_pkt"] = ns / n
	done()

	// bpf
	done = span("bpf")
	filter := bpf.MustParse("tcp and (port 80 or port 443)")
	ns = measure(per, func() {
		for i := range s.pkts {
			if filter.Match(&s.pkts[i]) {
				layerSink++
			}
		}
	})
	out["bpf.match_ns_per_pkt"] = ns / n
	done()

	// nic
	done = span("nic")
	receive := func(dev *nic.NIC) float64 {
		ns := measure(per, func() {
			for i, f := range s.frames {
				if q := dev.ReceiveAt(f, s.ts[i], 0); q >= 0 {
					dev.Poll(q)
				}
			}
		})
		return ns / n
	}
	out["nic.receive_ns_per_frame"] = receive(newModelNIC(w))
	filtered := newModelNIC(w)
	spare := func(i int) pkt.FlowKey {
		k := s.keys[i%len(s.keys)]
		k.SrcPort, k.DstPort = 7, uint16(i) // never seen in a workload
		return k
	}
	for i := 0; i < 4096; i++ {
		_, _, _ = filtered.AddFilter(nic.FilterSpec{Key: spare(i), Flex: nic.FlexOnlyFlags(pkt.FlagACK), Action: nic.ActionDrop})
	}
	out["nic.receive_filtered_ns_per_frame"] = receive(filtered)
	const filterOps = 1024
	ns = measure(per, func() {
		for i := 0; i < filterOps; i++ {
			k := spare(4096 + i)
			_, _, _ = filtered.AddFilter(nic.FilterSpec{Key: k, Flex: nic.FlexOnlyFlags(pkt.FlagACK), Action: nic.ActionDrop})
			_, _, _ = filtered.AddFilter(nic.FilterSpec{Key: k, Flex: nic.FlexOnlyFlags(pkt.FlagACK | pkt.FlagPSH), Action: nic.ActionDrop})
			filtered.RemoveFilters(k, false)
		}
	})
	out["nic.filter_add_remove_ns"] = ns / filterOps
	done()

	// flowtab
	done = span("flowtab")
	tab := flowtab.NewTable(rand.New(rand.NewSource(1)))
	for _, k := range s.keys {
		tab.CreateH(tab.Hash(k), k, 0)
	}
	ns = measure(per, func() {
		for i := range s.pkts {
			k := s.pkts[i].Key
			h := tab.Hash(k)
			if st := tab.LookupH(h, k); st != nil {
				tab.Touch(st, s.ts[i])
			}
		}
	})
	out["flowtab.lookup_ns_per_pkt"] = ns / n
	groups := 0
	ns = measure(per, func() {
		groups = tab.Sweep(s.ts[len(s.ts)-1], 4096, func(st *flowtab.Stream) { layerSink += st.ID })
	})
	out["flowtab.sweep_ns_per_group"] = ns / float64(max(groups, 1))
	churn := flowtab.NewTable(rand.New(rand.NewSource(1)))
	created := make([]*flowtab.Stream, 0, len(s.keys))
	ns = measure(per, func() {
		created = created[:0]
		for _, k := range s.keys {
			created = append(created, churn.CreateH(churn.Hash(k), k, 0))
		}
		for _, st := range created {
			churn.Remove(st)
			churn.Recycle(st)
		}
	})
	out["flowtab.create_remove_ns_per_stream"] = ns / float64(len(s.keys))
	done()

	// sketch
	done = span("sketch")
	sk := sketch.New(sketch.Config{})
	sk.SetHeavyMin(16 << 10)
	hashes := make([]uint64, len(s.pkts))
	for i := range s.pkts {
		hashes[i] = tab.Hash(s.pkts[i].Key)
	}
	ns = measure(per, func() {
		for i := range s.pkts {
			layerSink += sk.Observe(hashes[i], s.pkts[i].Key, 0, len(s.pkts[i].Payload))
		}
	})
	out["sketch.observe_ns_per_pkt"] = ns / n
	done()

	// reassembly
	done = span("reassembly")
	asmCfg := reassembly.Config{Mode: engineConfig(w).Mode}
	var emitted uint64
	emit := func(b []byte, _ bool) { emitted += uint64(len(b)) }
	var asmStats reassembly.Stats
	ns = measure(per, func() {
		asmStats = reassembly.Stats{}
		for i := range s.dirs {
			d := &s.dirs[i]
			if len(d.segs) == 0 {
				continue
			}
			a := reassembly.New(asmCfg)
			a.Init(d.isn)
			for _, sg := range d.segs {
				a.Segment(sg.seq, sg.data, emit)
			}
			a.Flush(emit)
			st := a.Stats()
			asmStats.OutOfOrderSegs += st.OutOfOrderSegs
			asmStats.DuplicateBytes += st.DuplicateBytes
		}
	})
	layerSink += emitted
	var tcpPayload int64
	for i := range s.dirs {
		for _, sg := range s.dirs[i].segs {
			tcpPayload += int64(len(sg.data))
		}
	}
	out["reassembly.segment_ns_per_seg"] = ns / float64(max(s.tcpSegs, 1))
	out["reassembly.ns_per_kb"] = ns / (float64(max(tcpPayload, 1)) / 1024)
	out["reassembly.ooo_seg_frac"] = float64(asmStats.OutOfOrderSegs) / float64(max(s.tcpSegs, 1))
	out["reassembly.dup_bytes_frac"] = float64(asmStats.DuplicateBytes) / float64(max(tcpPayload, 1))
	done()

	// mem
	done = span("mem")
	ecfg := engineConfig(w)
	mm := mem.New(mem.Config{Size: 1 << 30, BlockSize: ecfg.ArenaBlockSize(), Cores: 1})
	defer mm.Close()
	ns = measure(per, func() {
		var pos int64
		for i := range s.pkts {
			if mm.Decide(0, pos, len(s.pkts[i].Payload)) == mem.Admit {
				pos += int64(len(s.pkts[i].Payload))
			}
		}
	})
	out["mem.decide_ns_per_pkt"] = ns / n
	const blockOps = 1024
	held := make([]mem.Handle, 0, 64)
	ns = measure(per, func() {
		for i := 0; i < blockOps; i += 64 {
			held = held[:0]
			for j := 0; j < 64; j++ {
				h, b := mm.AllocBlock(0)
				if h == mem.NoBlock {
					panic("benchmark: arena exhausted in the block-cycle kernel")
				}
				b[0] = byte(j)
				mm.Reserve(1024)
				held = append(held, h)
			}
			mm.ReturnBlocks(0, held)
			mm.Release(64 * 1024)
		}
	})
	out["mem.block_cycle_ns_per_chunk"] = ns / blockOps
	done()

	// event
	done = span("event")
	const evOps = 1 << 14
	q := event.NewQueue(0)
	evs := make([]event.Event, 64)
	for i := range evs {
		evs[i] = event.Event{Type: event.Data, Accounted: 1}
	}
	pop := make([]event.Event, 64)
	ns = measure(per, func() {
		for i := 0; i < evOps; i += 64 {
			q.PushBatch(evs)
			q.PopBatch(pop)
		}
	})
	out["event.push_pop_ns_per_event"] = ns / evOps
	ns = measure(per, func() {
		hq := event.NewQueue(0)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := 0
			for got < evOps {
				if k := hq.PopBatch(pop); k > 0 {
					got += k
					continue
				}
				if _, ok := hq.Wait(); !ok {
					return
				}
				got++
			}
		}()
		for i := 0; i < evOps; {
			i += hq.PushBatch(evs)
		}
		wg.Wait()
	})
	out["event.handoff_ns_per_event"] = ns / evOps
	done()

	// metrics
	done = span("metrics")
	hist := metrics.NewRegistry(1).NewHistogram(metrics.Desc{Name: "bench_observe", Unit: "ns"}, 38)
	ns = measure(per, func() {
		for i := 0; i < evOps; i++ {
			hist.ObserveEx(0, uint64(i)*37, uint64(i))
		}
	})
	out["metrics.observe_ns"] = ns / evOps
	done()

	// trace
	done = span("trace")
	const genFrames = 1 << 11
	ns = measure(per, func() {
		g := trace.NewGenerator(trace.GenConfig{
			Seed: 1, Flows: 1 << 20, Concurrency: min(w.Concurrent, 1024), Alpha: w.Alpha,
			MinFlowBytes: w.MinBytes, MaxFlowBytes: w.MaxBytes, MSS: w.MSS, TCPFraction: w.TCPFraction,
			ReorderProb: w.ReorderProb, DuplicateProb: w.DupProb,
		})
		for i := 0; i < genFrames; i++ {
			layerSink += uint64(len(g.Next()))
		}
	})
	out["trace.gen_ns_per_frame"] = ns / genFrames
	done()

	// core: the engine over the same sample, with and without stream
	// journals, interleaved so both see the same machine.
	done = span("core")
	with := newEngineReplay(w, s, mm, true)
	without := newEngineReplay(w, s, mm, false)
	with.run()
	without.run()
	var m0, m1 runtime.MemStats
	var tWith, tWithout []float64
	var allocs uint64
	start := nowNS()
	for !enoughReps(len(tWith), time.Duration(nowNS()-start), 3*per) {
		runtime.ReadMemStats(&m0)
		tWith = append(tWith, float64(with.run()))
		runtime.ReadMemStats(&m1)
		allocs += m1.Mallocs - m0.Mallocs
		tWithout = append(tWithout, float64(without.run()))
	}
	engineNS := median(tWith) / n
	out["core.engine_ns_per_frame"] = engineNS
	out["core.engine_allocs_per_frame"] = float64(allocs) / float64(len(tWith)) / n
	out["streamscope.cost_frac"] = 1 - median(tWithout)/median(tWith)
	done()

	// Σ layers: each layer's cost weighted by how often the engine calls it
	// per frame on this sample.
	perFrame := func(count float64) float64 { return count / n }
	sum := out["pkt.decode_ns_per_frame"] +
		out["pkt.flowhash_ns_per_pkt"] +
		out["flowtab.lookup_ns_per_pkt"] +
		out["flowtab.create_remove_ns_per_stream"]*perFrame(float64(len(s.keys))) +
		out["mem.decide_ns_per_pkt"]*perFrame(float64(s.payloadPkts)) +
		out["reassembly.segment_ns_per_seg"]*perFrame(float64(s.tcpSegs)) +
		out["mem.block_cycle_ns_per_chunk"]*perFrame(float64(with.chunks)) +
		out["event.push_pop_ns_per_event"]*perFrame(float64(with.events))
	if w.Sketch {
		sum += out["sketch.observe_ns_per_pkt"]
	}
	out["core.layers_sum_ns_per_frame"] = sum
	out["core.residual_ns_per_frame"] = engineNS - sum
	return out
}
