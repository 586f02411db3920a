package core

import (
	"container/heap"
	"math/rand"

	"scap/internal/event"
	"scap/internal/flowtab"
	"scap/internal/mem"
	"scap/internal/metrics"
	"scap/internal/nic"
	"scap/internal/pkt"
	"scap/internal/reassembly"
	"scap/internal/sketch"
	"scap/internal/streamscope"
)

// Stats are the per-engine counters (roughly scap_stats_t plus internals).
type Stats struct {
	Frames       uint64
	DecodeErrors uint64
	FragsHeld    uint64 // fragments absorbed by the defragmenter
	FragsDropped uint64 // fragments dropped (fast mode does not defragment)
	Packets      uint64
	PayloadBytes uint64
	// StoredBytes counts payload actually written into stream memory (the
	// in-kernel copy the cost model prices per byte).
	StoredBytes uint64

	FilterIgnoredPkts uint64
	CutoffPkts        uint64
	CutoffBytes       uint64
	PPLDroppedPkts    uint64
	PPLDroppedBytes   uint64
	EventsLost        uint64
	EventsLostBytes   uint64

	StreamsCreated uint64
	StreamsClosed  uint64
	StreamsExpired uint64
	StreamsEvicted uint64

	// Reassembly aggregates, accumulated when streams retire.
	AsmDuplicateBytes uint64
	AsmDeliveredBytes uint64
	AsmHolesSkipped   uint64
	AsmOutOfOrder     uint64
	AsmDroppedSegs    uint64

	FDIRInstalled uint64
	FDIRRemoved   uint64

	// Sketch front-end counters. Observed totals are published from the
	// timer path, so they trail the live sketch by up to one timer tick;
	// suppression is counted per packet.
	SketchObservedPkts    uint64
	SketchObservedBytes   uint64
	SketchSuppressedPkts  uint64
	SketchSuppressedBytes uint64
}

// Options wires an Engine to its shared resources.
type Options struct {
	Config Config
	// Mem is the socket-wide memory manager (shared across cores).
	Mem *mem.Manager
	// NIC, when non-nil and Config.UseFDIR is set, receives drop-filter
	// installs for cutoff streams. Any capture backend's filter surface
	// works here: installs are gated on its Capabilities, and a backend
	// without hardware tables emulates the drops in software
	// (drops{cause="swfilter"} instead of cause="fdir").
	NIC nic.FilterSink
	// Queue receives this core's events.
	Queue  *event.Queue
	CoreID int
	// Rand seeds the flow table hash; nil uses a global source.
	Rand *rand.Rand
	// MaxStreams, when > 0, bounds tracked stream records; the oldest
	// stream is evicted to admit a new one (Scap's newest-wins policy).
	MaxStreams int
	// Metrics is the socket-wide instrument bundle (shared across cores;
	// its registry must cover CoreID). Nil gives the engine a private
	// registry, so standalone engines keep working unchanged.
	Metrics *Metrics
	// Scope is the socket-wide stream-journal pool (shared across cores;
	// each engine writes only its own core's journals). Nil disables
	// per-stream journaling.
	Scope *streamscope.Scope
}

// burstAcct is the accounting an engine accumulates between two flushes.
// storedBytes doubles as the pending stream-memory reservation: every byte
// stored in a chunk is charged to the budget.
type burstAcct struct {
	frames, packets, payloadBytes, storedBytes uint64
}

// filterEntry tracks one stream's FDIR deadline in the engine's heap
// (paper §5.5: filters are kept sorted by timeout).
type filterEntry struct {
	deadline int64
	key      pkt.FlowKey
	id       uint64
}

type filterHeap []filterEntry

func (h filterHeap) Len() int           { return len(h) }
func (h filterHeap) Less(i, j int) bool { return h[i].deadline < h[j].deadline }
func (h filterHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *filterHeap) Push(x any)        { *h = append(*h, x.(filterEntry)) }
func (h *filterHeap) Pop() any          { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// Engine is one core's kernel path. The owning goroutine is the only one
// that may call HandleFrame, HandlePacket, CheckTimers, and Shutdown;
// Stats and Control are safe from any goroutine.
//
// The ownership analyzer enforces the single-writer rule statically:
// every method is restricted to the engine role except the //scap:anyrole
// accessors, which are individually audited for cross-goroutine safety.
//
//scap:shared
//scap:owner engine
type Engine struct {
	cfg    Config
	mm     *mem.Manager
	nicDev nic.FilterSink
	// caps is the backend's negotiated capability set, captured once at
	// construction (zero when nicDev is nil): filter installs are gated on
	// it so a backend without any filter table is never driven.
	caps   nic.Capabilities
	q      *event.Queue
	table  *flowtab.Table
	defrag *reassembly.Defragmenter
	ctrl   ctrlQueue
	coreID int

	// dirty holds streams with a non-empty chunk, for flush timeouts.
	dirty map[*flowtab.Stream]struct{}
	// filters orders installed FDIR filters by deadline.
	filters filterHeap

	// sketch is the optional priority-aware front-end: it accounts every
	// packet and answers cutoff decisions for flows that no longer need a
	// stream record. Nil when Config.Sketch.Enabled is false.
	sketch *sketch.Sketch
	// retire is a cutoff stream scheduled for record retirement at the end
	// of the current packet (deferred so the retirement doesn't pull state
	// out from under the payload path that triggered it).
	retire *flowtab.Stream

	// dynCutoff is the engine-wide dynamic cutoff clamp set by the adaptive
	// control plane (OpSetDynCutoff); -1 means no clamp. It caps every
	// stream's effective cutoff without rewriting per-stream state, so
	// relaxing it instantly restores configured behavior. Engine-owned plain
	// field: writes arrive only through the ctrl queue drain.
	dynCutoff int64
	// sketchFDIRBudget bounds how many sketch-nominated flows may hold NIC
	// drop filters at once (-1 = unlimited); sketchFDIRLive counts them.
	sketchFDIRBudget int
	sketchFDIRLive   int
	// victims is the expiry sweep's reusable collection buffer.
	victims []*flowtab.Stream

	// prev* remember the flow table's plain counters at the last timer
	// publication, so the timer path adds deltas to the metric cells.
	prevLookups uint64
	prevProbes  uint64
	prevSwept   uint64
	prevGrows   uint64
	prevSkPkts  uint64
	prevSkBytes uint64

	maxStreams int
	// m is the socket-wide instrument bundle; c is this core's bound cells
	// (the live statistics block — the owning kernel-path goroutine is the
	// only writer, any goroutine may read through the registry or Stats).
	m *Metrics
	c cells
	// scope is the per-stream journal pool; nil when journaling is off.
	// This engine only ever acquires/writes journals on its own core's
	// pool, preserving the single-writer-per-journal invariant.
	scope   *streamscope.Scope
	scratch pkt.Packet
	ctrlBuf []Ctrl
	now     int64

	// stageStart is the capture-clock stamp of the current HandleFrames
	// batch entry; the first flushEvents of the batch observes
	// engine→ring latency against it and zeroes it, so timer-driven
	// flushes never measure against a stale batch.
	stageStart int64

	// Events are built in the ring's own slots (stage) and published by the
	// next flush: staged counts the slots reserved since the last Commit,
	// lost the events a full ring refused in the same span, and leadID names
	// the span's first stream (the stage-latency exemplar). lostEv is where
	// a refused event is built instead, so callers fill it like any other
	// before staged unwinds its accounting.
	staged int
	lost   int
	leadID uint64
	lostEv event.Event

	// pend is the burst-local accounting: the per-frame counters and the
	// stream-memory reservation accumulate here as plain adds and reach the
	// shared atomics once per flush (publish), so the in-order data-frame
	// path executes no locked instruction.
	pend burstAcct

	// freeExt and freeAsm recycle per-stream state: finishStream parks a
	// retired stream's extension (zeroed) and assembler here, newExt and
	// newAsm take them back (refilling an empty list a slab at a time), so
	// after warm-up a stream costs no heap object.
	freeExt []*streamExt
	freeAsm []*reassembly.Assembler

	// curStream/curExt name the stream whose payload is currently being
	// fed through the assembler; emitCb and flushCb are bound once at
	// construction so the per-packet path hands the assembler a callback
	// without allocating a closure per payload.
	curStream *flowtab.Stream
	curExt    *streamExt
	emitCb    reassembly.Emit
	flushCb   reassembly.Emit
}

// NewEngine creates an engine.
func NewEngine(opts Options) *Engine {
	cfg := opts.Config.withDefaults()
	e := &Engine{
		cfg:              cfg,
		mm:               opts.Mem,
		nicDev:           opts.NIC,
		q:                opts.Queue,
		table:            flowtab.NewTable(opts.Rand),
		coreID:           opts.CoreID,
		dirty:            make(map[*flowtab.Stream]struct{}),
		maxStreams:       opts.MaxStreams,
		dynCutoff:        -1,
		sketchFDIRBudget: -1,
	}
	if opts.NIC != nil {
		e.caps = opts.NIC.Capabilities()
	}
	if cfg.Sketch.Enabled {
		e.sketch = sketch.New(sketch.Config{
			Width:      cfg.Sketch.Width,
			Depth:      cfg.Sketch.Depth,
			TopK:       cfg.Sketch.TopK,
			Priorities: cfg.Priorities,
		})
		if min := cfg.minCutoff(); min >= 0 {
			e.sketch.SetHeavyMin(uint64(min))
		}
	}
	e.emitCb = e.emitToCur
	e.flushCb = e.flushToCur
	e.scope = opts.Scope
	e.m = opts.Metrics
	if e.m == nil {
		e.m = NewMetrics(metrics.NewRegistry(opts.CoreID + 1))
	}
	e.c = e.m.bind(opts.CoreID)
	if e.mm == nil {
		e.mm = mem.New(mem.Config{
			Priorities: cfg.Priorities,
			BlockSize:  cfg.ArenaBlockSize(),
			Cores:      opts.CoreID + 1,
		})
	}
	if e.q == nil {
		e.q = event.NewQueue(0)
	}
	// Disjoint ID spaces per core: stream IDs are unique socket-wide.
	e.table.SetIDBase(uint64(opts.CoreID) << 48)
	if cfg.Mode == reassembly.ModeStrict {
		e.defrag = reassembly.NewDefragmenter(0, 0)
	}
	return e
}

// Stats returns a snapshot of this core's counters. It is safe to call from
// any goroutine while the engine runs: each counter is loaded atomically, so
// the snapshot is race-free. The per-frame counters (Frames, Packets,
// PayloadBytes, StoredBytes) are published once per flush, so a
// cross-goroutine reader may see them lag the others by at most one burst;
// they are exact once a public entry point (HandleFrame, HandleFrames,
// HandlePacket, CheckTimers, DrainControls, Shutdown) has returned, like
// reading /proc counters between softirqs. The same numbers — plus totals,
// per-core breakdowns, and rates — are available through the shared
// metrics registry (Metrics.Registry).
//
//scap:anyrole every counter is read through sync/atomic
func (e *Engine) Stats() Stats {
	return Stats{
		Frames:       e.c.frames.Load(),
		DecodeErrors: e.c.decodeErrors.Load(),
		FragsHeld:    e.c.fragsHeld.Load(),
		FragsDropped: e.c.fragsDropped.Load(),
		Packets:      e.c.packets.Load(),
		PayloadBytes: e.c.payloadBytes.Load(),
		StoredBytes:  e.c.storedBytes.Load(),

		FilterIgnoredPkts: e.c.filterIgnoredPkts.Load(),
		CutoffPkts:        e.c.cutoffPkts.Load(),
		CutoffBytes:       e.c.cutoffBytes.Load(),
		PPLDroppedPkts:    e.c.pplDroppedPkts.Load(),
		PPLDroppedBytes:   e.c.pplDroppedBytes.Load(),
		EventsLost:        e.c.eventsLost.Load(),
		EventsLostBytes:   e.c.eventsLostBytes.Load(),

		StreamsCreated: e.c.streamsCreated.Load(),
		StreamsClosed:  e.c.streamsClosed.Load(),
		StreamsExpired: e.c.streamsExpired.Load(),
		StreamsEvicted: e.c.streamsEvicted.Load(),

		AsmDuplicateBytes: e.c.asmDuplicateBytes.Load(),
		AsmDeliveredBytes: e.c.asmDeliveredBytes.Load(),
		AsmHolesSkipped:   e.c.asmHolesSkipped.Load(),
		AsmOutOfOrder:     e.c.asmOutOfOrder.Load(),
		AsmDroppedSegs:    e.c.asmDroppedSegs.Load(),

		FDIRInstalled: e.c.fdirInstalled.Load(),
		FDIRRemoved:   e.c.fdirRemoved.Load(),

		SketchObservedPkts:    e.c.sketchObservedPkts.Load(),
		SketchObservedBytes:   e.c.sketchObservedBytes.Load(),
		SketchSuppressedPkts:  e.c.sketchSuppressedPkts.Load(),
		SketchSuppressedBytes: e.c.sketchSuppressedBytes.Load(),
	}
}

// Metrics returns the engine's instrument bundle (the shared one from
// Options, or the engine's private bundle when none was given).
//
//scap:anyrole immutable after construction
func (e *Engine) Metrics() *Metrics { return e.m }

// Table exposes the flow table (tests and the simulator use it).
//
//scap:anyrole immutable after construction
func (e *Engine) Table() *flowtab.Table { return e.table }

// Sketch returns the sketch front-end, or nil when disabled. Cross-
// goroutine readers use its Snapshot method.
//
//scap:anyrole immutable after construction; snapshots are atomic
func (e *Engine) Sketch() *sketch.Sketch { return e.sketch }

// Queue returns the engine's event queue.
//
//scap:anyrole immutable after construction
func (e *Engine) Queue() *event.Queue { return e.q }

// Now returns the engine's current virtual time (last packet or timer).
func (e *Engine) Now() int64 { return e.now }

// CoreID returns the engine's core (queue) index.
//
//scap:anyrole immutable after construction
func (e *Engine) CoreID() int { return e.coreID }

// DrainControls applies pending control messages and flushes any events
// they produced. Drivers call it after their frame loop stops, so KeepChunk
// hand-backs sent during the final worker drain are still reaped (and their
// blocks freed) instead of lingering in the control queue.
func (e *Engine) DrainControls() {
	e.drainCtrl()
	e.flushEvents()
}

// HandleFrame is the softirq entry point: decode and process one frame.
// Staged events are flushed before it returns, so callers may poll the
// queue immediately after.
//
//scap:hotpath
func (e *Engine) HandleFrame(data []byte, ts int64) {
	e.drainCtrl()
	e.handleFrame(data, ts)
	e.flushEvents()
}

// HandleFrames processes a batch of frames with one control drain and one
// event flush for the whole burst — the kernel goroutine's entry point.
//
//scap:hotpath
func (e *Engine) HandleFrames(frames []nic.Frame) {
	e.drainCtrl()
	now := metrics.Nanotime()
	e.stageStart = now
	// Frames of one burst share one ingest stamp, so the ingest→engine
	// latency is observed once per run of equal stamps, not once per frame.
	var ing int64
	var run uint64
	for i := range frames {
		if frames[i].Ingest != ing {
			e.observeIngest(now, ing, run)
			ing, run = frames[i].Ingest, 0
		}
		run++
		e.handleFrame(frames[i].Data, frames[i].TS)
	}
	e.observeIngest(now, ing, run)
	e.flushEvents()
}

// observeIngest records the ingest→engine latency of n frames stamped ing.
//
//scap:hotpath
func (e *Engine) observeIngest(now, ing int64, n uint64) {
	if n > 0 && ing > 0 && now >= ing {
		e.m.stageIngest.ObserveN(e.coreID, uint64(now-ing), n)
	}
}

//scap:hotpath
func (e *Engine) handleFrame(data []byte, ts int64) {
	e.pend.frames++
	if ts > e.now {
		e.now = ts
	}
	p := &e.scratch
	if err := pkt.Decode(data, p); err != nil {
		e.c.decodeErrors.Add(1)
		return
	}
	p.Timestamp = ts
	e.handlePacket(p)
}

// HandlePacket processes an already-decoded packet and flushes staged
// events before returning.
//
//scap:hotpath
func (e *Engine) HandlePacket(p *pkt.Packet) {
	e.handlePacket(p)
	e.flushEvents()
}

//scap:hotpath
func (e *Engine) handlePacket(p *pkt.Packet) {
	if p.Timestamp > e.now {
		e.now = p.Timestamp
	}
	if p.IsFragment() {
		if e.defrag == nil {
			// Fast mode does not spend memory on defragmentation; the
			// fragmented datagram is counted against the stream as loss.
			e.c.fragsDropped.Add(1)
			return
		}
		whole := e.defrag.Add(p)
		if whole == nil {
			e.c.fragsHeld.Add(1)
			return
		}
		// Reparse the transport header from the reassembled datagram.
		var np pkt.Packet
		np = *p
		np.FragOffset, np.MoreFrags = 0, false
		if err := pkt.DecodeTransport(whole, &np); err != nil {
			e.c.decodeErrors.Add(1)
			return
		}
		p = &np
	}
	e.pend.packets++
	e.process(p)
}

// process runs the per-packet stream logic for one decoded packet. The flow
// key is hashed exactly once; the same 64-bit hash drives the table probe,
// the miss-path insert, and the sketch front-end.
//
//scap:hotpath
func (e *Engine) process(p *pkt.Packet) {
	ts := p.Timestamp
	h := e.table.Hash(p.Key)
	s := e.table.LookupH(h, p.Key)
	if e.sketch != nil && e.sketchObserve(p, h, s) {
		return
	}
	if s == nil {
		if e.maxStreams > 0 && e.table.Len() >= e.maxStreams {
			if victim := e.table.Oldest(); victim != nil {
				e.finishStream(victim, flowtab.StatusEvicted)
			}
		}
		s = e.table.CreateH(h, p.Key, ts)
		e.initStream(s, e.newExt(s), p, h)
	} else {
		e.table.Touch(s, ts)
	}
	x := ext(s)

	s.Stats.Pkts++
	s.Stats.Bytes += uint64(p.WireLen)
	s.Stats.End = ts

	if x.ignored {
		e.c.filterIgnoredPkts.Add(1)
		return
	}

	if p.Key.Proto == pkt.ProtoTCP {
		e.processTCP(s, x, p)
	} else {
		// UDP and other protocols: concatenate payloads in arrival order
		// (paper §2.3).
		e.processPayloadBytes(s, x, p, p.Payload, false)
	}
	e.finishRetired()
}

// sketchObserve accounts one packet in the sketch and reports whether the
// sketch fully answered it — true means the engine skips record lookup,
// creation, and all per-stream work for this packet. Tracked flows (s !=
// nil) are only accounted, never suppressed. Untracked flows are suppressed
// when (a) neither direction passes the BPF filter, or (b) the flow's byte
// estimate had already crossed its cutoff before this packet and its
// priority is at or below Sketch.SuppressMaxPriority. TCP SYN/FIN/RST always
// pass through so connection lifecycle (handshake stats, termination) still
// reaches the record path. Estimates are one-sided per flow but can be
// inflated by counter collisions, so suppression is probabilistic in exactly
// the way count-min front-ends are — sized by Sketch.Width/Depth.
//
//scap:hotpath
func (e *Engine) sketchObserve(p *pkt.Packet, h uint64, s *flowtab.Stream) bool {
	n := len(p.Payload)
	var prio int
	if s != nil {
		prio = s.Priority
	} else {
		prio = e.packetPriority(p)
	}
	est := e.sketch.Observe(h, p.Key, prio, n)
	if s != nil {
		return false
	}
	if e.cfg.Filter != nil && !e.cfg.Filter.Match(p) {
		rev := *p
		rev.Key = p.Key.Reverse()
		if !e.cfg.Filter.Match(&rev) {
			// Filter-rejected flow: with the sketch in front there is no
			// reason to burn a record on it just to remember the rejection.
			e.c.filterIgnoredPkts.Add(1)
			return true
		}
	}
	if p.Key.Proto == pkt.ProtoTCP && p.TCPFlags&(pkt.FlagSYN|pkt.FlagFIN|pkt.FlagRST) != 0 {
		return false
	}
	if prio > e.cfg.Sketch.SuppressMaxPriority {
		return false
	}
	// Direction is unknown without a record; resolve the cutoff as the
	// client side (directional cutoffs are approximated for suppressed
	// flows).
	cut := e.effCutoff(e.cfg.resolveCutoff(p, pkt.DirClient))
	if cut < 0 || est-uint64(n) < uint64(cut) {
		return false
	}
	e.c.sketchSuppressedPkts.Add(1)
	e.c.sketchSuppressedBytes.Add(uint64(n))
	return true
}

// effCutoff clamps a stream's configured cutoff with the engine-wide
// dynamic cutoff: the tighter of the two wins, and -1 (unlimited) on both
// sides means no cutoff. Evaluated at use time so tightening catches
// existing streams on their next payload and relaxing needs no table walk.
//
//scap:hotpath
func (e *Engine) effCutoff(cut int64) int64 {
	if e.dynCutoff >= 0 && (cut < 0 || cut > e.dynCutoff) {
		return e.dynCutoff
	}
	return cut
}

// packetPriority resolves the PPL priority a packet's flow would be
// assigned at stream creation (first matching priority class).
//
//scap:hotpath
func (e *Engine) packetPriority(p *pkt.Packet) int {
	for _, pc := range e.cfg.PriorityClasses {
		if pc.Filter.Match(p) {
			return pc.Priority
		}
	}
	return 0
}

// finishRetired retires a stream whose cutoff fired this packet and whose
// further handling the sketch can take over: the record is finished (final
// chunk + termination event) and any installed NIC filters are handed to
// the sketch's heavy entry so they stay in force without the record. From
// here on the flow's packets are answered by sketchObserve.
func (e *Engine) finishRetired() {
	s := e.retire
	if s == nil {
		return
	}
	e.retire = nil
	if !s.InTable() || s.Status != flowtab.StatusCutoff {
		return
	}
	if s.HWFilter {
		// The filters stay installed under the sketch's FDIR mark; clearing
		// HWFilter keeps finishStream's removeFDIR from tearing them down.
		// The deadline heap still expires them (expireFilters clears the
		// sketch mark when no record claims the key).
		e.sketch.MarkFDIR(e.table.Hash(s.Key))
		s.HWFilter = false
	}
	e.finishStream(s, flowtab.StatusCutoff)
}

// initStream resolves a new stream's configuration and fires its creation
// event. h is the flow hash process already computed: the journal sampler
// consumes its top bits, so the sampling decision costs one compare.
func (e *Engine) initStream(s *flowtab.Stream, x *streamExt, p *pkt.Packet, h uint64) {
	e.c.streamsCreated.Add(1)
	if e.mm.UnderPPL() {
		e.m.flight.Note(e.coreID, metrics.FlightStreamCreate, int64(s.ID), int64(s.Priority))
	}
	if e.cfg.Filter != nil && !e.cfg.Filter.Match(p) {
		// Neither direction matches ⇒ the stream is uninteresting. A
		// directional filter (e.g. "src port 80") must still keep both
		// directions of matching connections.
		rev := *p
		rev.Key = p.Key.Reverse()
		if !e.cfg.Filter.Match(&rev) {
			x.ignored = true
			return
		}
	}
	s.Cutoff = e.cfg.resolveCutoff(p, s.Dir)
	s.ChunkSize = e.cfg.ChunkSize
	s.OverlapSize = e.cfg.OverlapSize
	s.FlushTimeout = e.cfg.FlushTimeout
	s.InactivityTimeout = e.cfg.InactivityTimeout
	if s.Opposite != nil {
		s.Priority = s.Opposite.Priority
	} else {
		s.Priority = e.packetPriority(p)
	}
	if p.Key.Proto == pkt.ProtoTCP {
		s.Asm = e.newAsm(reassembly.Config{
			Mode:   e.cfg.Mode,
			Policy: e.cfg.resolvePolicy(p.Key.DstIP),
		})
	}
	x.filterTimeout = e.cfg.InactivityTimeout
	if e.scope != nil && e.scope.SampleNew(h) {
		e.jbind(s, x, true)
		e.jnote(x, streamscope.EvCreated, int64(s.Priority), s.Cutoff)
	}
	e.emit(e.stage(event.Creation, s, 0))
}

// jbind acquires a journal for s on this engine's pool. sampled=false marks
// an anomaly promotion. Cold relative to the packet rate: it runs once per
// journaled stream, and is alloc-free either way.
func (e *Engine) jbind(s *flowtab.Stream, x *streamExt, sampled bool) {
	x.j, x.jGen = e.scope.Acquire(e.coreID, streamscope.Binding{
		ID:       s.ID,
		Key:      s.Key,
		Dir:      uint8(s.Dir),
		Priority: s.Priority,
		Created:  s.Stats.Start,
		Sampled:  sampled,
	})
}

// jnote records one lifecycle event on the stream's journal, if it has one
// and the pool has not rebound it to a newer stream. The generation check is
// exact, not racy: journals are rebound only by this engine goroutine.
//
//scap:hotpath
func (e *Engine) jnote(x *streamExt, kind streamscope.EventKind, a, b int64) {
	j := x.j
	if j == nil || j.Gen() != x.jGen {
		return
	}
	j.Note(kind, e.now, a, b)
}

// janomaly flags an anomaly on the stream's journal, promoting the stream
// into the journal pool first if sampling skipped it — anomalous streams are
// always journaled regardless of the sampling rate.
//
//scap:hotpath
func (e *Engine) janomaly(s *flowtab.Stream, x *streamExt, bit uint64, kind streamscope.EventKind, a, b int64) {
	if e.scope == nil || x.ignored {
		return
	}
	j := x.j
	if j == nil || j.Gen() != x.jGen {
		e.jbind(s, x, false)
		j = x.j
	}
	first := !j.Anomalous()
	j.NoteAnomaly(bit, kind, e.now, a, b)
	if first {
		e.scope.CountAnomaly(e.coreID)
	}
}

// jcheckOverlap emits an overlap event when the assembler's overlap totals
// moved since the last check. Called after each TCP segment only when the
// scope is enabled; the common case is two loads and two compares.
//
//scap:hotpath
func (e *Engine) jcheckOverlap(s *flowtab.Stream, x *streamExt) {
	oldWins, newWins := s.Asm.Overlaps()
	if oldWins == x.jOldWins && newWins == x.jNewWins {
		return
	}
	x.jOldWins, x.jNewWins = oldWins, newWins
	e.janomaly(s, x, streamscope.AnomOverlap, streamscope.EvOverlap, int64(oldWins), int64(newWins))
}

//scap:hotpath
func (e *Engine) processTCP(s *flowtab.Stream, x *streamExt, p *pkt.Packet) {
	if p.HasFlag(pkt.FlagSYN) {
		s.SawSYN = true
		if s.Asm != nil {
			s.Asm.Init(p.Seq)
		}
		if s.Opposite != nil && s.Opposite.SawSYN {
			s.SawHandshake = true
			s.Opposite.SawHandshake = true
		}
		return // SYN segments carry no stream data we deliver
	}

	if p.TCPFlags&pkt.FlagRST != 0 {
		s.HasFIN = true
		s.FINSeq = p.Seq
		e.terminatePair(s, flowtab.StatusClosed)
		return
	}

	if len(p.Payload) > 0 {
		if !s.SawSYN {
			s.Error |= reassembly.FlagBadHandshake
		}
		e.processPayloadBytes(s, x, p, p.Payload, true)
	}

	if p.TCPFlags&pkt.FlagFIN != 0 {
		s.HasFIN = true
		s.FINSeq = p.Seq + uint32(len(p.Payload))
		if s.Opposite == nil || s.Opposite.HasFIN {
			e.terminatePair(s, flowtab.StatusClosed)
		}
	}
}

// processPayloadBytes runs the cutoff check, PPL admission, and per-packet
// record keeping, then routes the payload through the assembler (viaAsm,
// the TCP path) or straight to the chunk (datagram protocols).
//
//scap:hotpath
func (e *Engine) processPayloadBytes(s *flowtab.Stream, x *streamExt, p *pkt.Packet, payload []byte, viaAsm bool) {
	n := len(payload)
	if n == 0 {
		return
	}
	s.Stats.PayloadBytes += uint64(n)
	e.pend.payloadBytes += uint64(n)

	if x.discard || s.Status == flowtab.StatusCutoff {
		s.Stats.DiscardedPkts++
		s.Stats.DiscardedBytes += uint64(n)
		e.c.cutoffPkts.Add(1)
		e.c.cutoffBytes.Add(uint64(n))
		// Data arriving for a cutoff stream means its NIC filter expired
		// or was evicted: re-install with a doubled timeout (§5.5).
		e.reinstallFDIR(s, x)
		return
	}

	pos := int64(s.Stats.CapturedBytes)
	if cut := e.effCutoff(s.Cutoff); cut >= 0 && pos >= cut {
		e.reachCutoff(s, x)
		s.Stats.DiscardedPkts++
		s.Stats.DiscardedBytes += uint64(n)
		e.c.cutoffPkts.Add(1)
		e.c.cutoffBytes.Add(uint64(n))
		return
	}

	// The bytes stored since the last publish are not in the manager's
	// count yet; deciding against both keeps admission independent of how
	// many frames share one reservation.
	switch e.mm.DecidePending(int64(e.pend.storedBytes), s.Priority, pos, n) {
	case mem.Admit:
	default:
		s.Stats.DroppedPkts++
		s.Stats.DroppedBytes += uint64(n)
		e.c.pplDroppedPkts.Add(1)
		e.c.pplDroppedBytes.Add(uint64(n))
		e.janomaly(s, x, streamscope.AnomPPLDrop, streamscope.EvPPLDrop, int64(n), int64(s.Priority))
		return
	}

	if x.j != nil && !x.jFirst {
		x.jFirst = true
		e.jnote(x, streamscope.EvFirstPayload, int64(n), 0)
	}
	if e.cfg.NeedPkts {
		e.recordPacket(s, x, p, n)
	}
	e.curStream, e.curExt = s, x
	if viaAsm {
		s.Asm.Segment(p.Seq, payload, e.emitCb)
		if e.scope != nil {
			e.jcheckOverlap(s, x)
		}
	} else {
		e.appendData(s, x, payload, false)
	}
}

// emitToCur appends assembler output to the current stream's chunk. It is
// bound to emitCb at construction; see the field comment.
//
//scap:hotpath
func (e *Engine) emitToCur(b []byte, hole bool) {
	if hole {
		e.janomaly(e.curStream, e.curExt, streamscope.AnomGap, streamscope.EvGap, int64(len(b)), 0)
	}
	e.appendData(e.curStream, e.curExt, b, hole)
}

// flushToCur is emitToCur for final flushes, where a stream that has
// already been cut off or discarded must not regain data.
func (e *Engine) flushToCur(b []byte, hole bool) {
	if e.curStream.Status == flowtab.StatusActive {
		if hole {
			e.janomaly(e.curStream, e.curExt, streamscope.AnomGap, streamscope.EvGap, int64(len(b)), 0)
		}
		e.appendData(e.curStream, e.curExt, b, hole)
	}
}

// recordPacket appends a packet record to the current chunk. Off points at
// the chunk position where in-order payload will land; out-of-order bytes
// get Len 0 (their payload lands elsewhere after reassembly).
//
//scap:hotpath
func (e *Engine) recordPacket(s *flowtab.Stream, x *streamExt, p *pkt.Packet, n int) {
	if x.chunk.buf == nil {
		x.chunk = e.newChunkBuf(s, x, nil, e.now)
		e.markDirty(s, x)
	}
	rec := event.PacketRecord{
		TS:      p.Timestamp,
		WireLen: p.WireLen,
		CapLen:  len(p.Data),
		Seq:     p.Seq,
		Flags:   p.TCPFlags,
	}
	inOrder := s.Asm == nil || !s.Asm.Initialized() || p.Seq == s.Asm.NextSeq()
	if inOrder {
		rec.Off = int32(x.chunk.fill())
		rec.Len = int32(n)
	}
	c := &x.chunk
	if len(c.pkts) == cap(c.pkts) {
		e.growPktRecords(c)
	}
	k := len(c.pkts)
	c.pkts = c.pkts[:k+1]
	c.pkts[k] = rec
}

// pktRecInitCap is the initial capacity of a block's packet-record slab.
const pktRecInitCap = 16

// growPktRecords doubles a chunk's record slab and re-parks it as the
// block's attachment, so the grown capacity is reused by every later chunk
// built in that block. Cold: each block pays the growth ramp once, then the
// record path is a slot write for the rest of the block's life.
func (e *Engine) growPktRecords(c *chunkState) {
	newCap := 2 * cap(c.pkts)
	if newCap < pktRecInitCap {
		newCap = pktRecInitCap
	}
	recs := make([]event.PacketRecord, len(c.pkts), newCap)
	copy(recs, c.pkts)
	c.pkts = recs
	if c.blk != mem.NoBlock {
		e.mm.SetBlockAttachment(c.blk, recs)
	}
}

// appendData copies reassembled bytes into the stream's chunk, enforcing
// the cutoff and delivering chunks as they fill.
//
//scap:hotpath
func (e *Engine) appendData(s *flowtab.Stream, x *streamExt, b []byte, hole bool) {
	if hole {
		s.Error |= reassembly.FlagHole
	}
	for len(b) > 0 {
		if cut := e.effCutoff(s.Cutoff); cut >= 0 {
			remain := cut - int64(s.Stats.CapturedBytes)
			if remain <= 0 {
				e.reachCutoff(s, x)
				s.Stats.DiscardedBytes += uint64(len(b))
				e.c.cutoffBytes.Add(uint64(len(b)))
				return
			}
			if int64(len(b)) > remain {
				head := b[:remain]
				tail := b[remain:]
				e.appendData(s, x, head, hole)
				s.Stats.DiscardedBytes += uint64(len(tail))
				e.c.cutoffBytes.Add(uint64(len(tail)))
				e.reachCutoff(s, x)
				return
			}
		}
		if x.chunk.buf == nil {
			x.chunk = e.newChunkBuf(s, x, nil, e.now)
			e.markDirty(s, x)
		}
		c := &x.chunk
		if hole {
			c.holeBefore = true
			hole = false
		}
		room := c.room()
		if room == 0 {
			e.deliverChunk(s, x, false)
			continue
		}
		take := len(b)
		if take > room {
			take = room
		}
		if c.fill() == c.overlapLen {
			c.firstTS = e.now
		}
		// take <= room keeps the fill inside the block's storage, so the
		// reslice-and-copy never allocates.
		n := len(c.buf)
		c.buf = c.buf[:n+take]
		copy(c.buf[n:], b[:take])
		b = b[take:]
		s.Stats.CapturedBytes += uint64(take)
		e.pend.storedBytes += uint64(take)
		e.markDirty(s, x)
		if c.room() == 0 {
			e.deliverChunk(s, x, false)
		}
	}
}

// deliverChunk emits the current chunk as a data event and starts its
// successor (unless last).
func (e *Engine) deliverChunk(s *flowtab.Stream, x *streamExt, last bool) {
	c := &x.chunk
	hasNew := c.fill() > c.overlapLen || c.extraAcct > 0
	if !hasNew {
		if last {
			e.dropChunk(s, x)
		}
		return
	}
	x.chunksDelivered++
	e.m.chunkBytes.ObserveEx(e.coreID, uint64(c.fill()), s.ID)
	e.jnote(x, streamscope.EvChunkFlush, int64(c.fill()), e.now-c.firstTS)
	ev := e.stage(event.Data, s, x.chunksDelivered)
	ev.Data = c.buf
	ev.HoleBefore = c.holeBefore
	ev.Last = last
	ev.Accounted = c.accounted()
	ev.Pkts = c.pkts
	ev.Block = c.blk
	prev := c.buf
	if last {
		x.chunk = chunkState{}
		delete(e.dirty, s)
	} else {
		x.chunk = e.newChunkBuf(s, x, prev, e.now)
		if x.chunk.fill() > 0 {
			e.markDirty(s, x)
		} else {
			delete(e.dirty, s)
		}
	}
	e.emit(ev)
}

// dropChunk releases an undelivered chunk's memory (discard/termination of
// an empty tail).
func (e *Engine) dropChunk(s *flowtab.Stream, x *streamExt) {
	if acct := x.chunk.accounted(); acct > 0 {
		e.release(acct)
	}
	if x.chunk.blk != mem.NoBlock {
		e.mm.FreeBlock(e.coreID, x.chunk.blk)
	}
	x.chunk = chunkState{}
	delete(e.dirty, s)
}

// evBatchMax bounds the events published per Commit, so timer sweeps and
// shutdowns over large tables publish incrementally — the worker drains
// while the sweep is still running — instead of holding a whole table's
// events invisible in reserved slots.
const evBatchMax = 256

// stage claims the next ring slot and fills the event's header and stream
// snapshot in place; the caller sets any chunk fields through the returned
// pointer and then calls emit. The slot is all zero on entry (the consumer's
// Release clears what it hands back). When the ring is full the event is
// built in lostEv instead and emit accounts it as lost.
//
//scap:hotpath
func (e *Engine) stage(typ event.Type, s *flowtab.Stream, chunks uint64) *event.Event {
	if e.staged+e.lost == 0 {
		e.leadID = s.ID
	}
	ev := e.q.Reserve()
	if ev == nil {
		ev = &e.lostEv
	}
	ev.Type = typ
	ev.Stream = s
	s.SnapshotInto(&ev.Info, chunks)
	return ev
}

// emit follows stage once the event's fields are set: the event goes out
// with the next flush, which is now if evBatchMax of them are waiting. An
// event the ring refused is unwound here instead — counted as lost, its
// chunk's charge released and its block freed, exactly like a per-event push
// on a full queue.
//
//scap:hotpath
func (e *Engine) emit(ev *event.Event) {
	if ev != &e.lostEv {
		e.staged++
	} else {
		e.lost++
		e.c.eventsLost.Add(1)
		e.c.eventsLostBytes.Add(uint64(len(ev.Data)))
		if ev.Accounted > 0 {
			e.release(ev.Accounted)
		}
		if ev.Block != mem.NoBlock {
			e.mm.FreeBlock(e.coreID, ev.Block)
		}
		*ev = event.Event{}
	}
	if e.staged+e.lost >= evBatchMax {
		e.flushEvents()
	}
}

// publish moves the burst-local accounting into the shared counters and the
// memory manager. It runs before every Commit (a worker must never release
// bytes the manager has not been charged), before every engine-side Release,
// and before every public entry point returns.
func (e *Engine) publish() {
	p := e.pend
	if p == (burstAcct{}) {
		return
	}
	e.pend = burstAcct{}
	e.c.frames.Add(p.frames)
	e.c.packets.Add(p.packets)
	e.c.payloadBytes.Add(p.payloadBytes)
	if p.storedBytes > 0 {
		e.c.storedBytes.Add(p.storedBytes)
		e.mm.Reserve(int(p.storedBytes))
	}
}

// release returns n bytes to the stream-memory budget from the engine side.
// The bytes may have been stored in this very burst, so the pending
// reservation is published first: used never dips below zero.
func (e *Engine) release(n int) {
	e.publish()
	e.mm.Release(n)
}

// flushEvents publishes the burst: first the accounting, then the events
// staged since the last flush, with one Commit. Events the ring refused were
// already unwound by emit; the flush reports them as one overflow record.
func (e *Engine) flushEvents() {
	e.publish()
	if e.staged+e.lost == 0 {
		return
	}
	now := metrics.Nanotime()
	if e.stageStart > 0 {
		// The batch's lead stream serves as the latency exemplar: a tail
		// observation here links the p99 to a concrete journal.
		e.m.stageRing.ObserveEx(e.coreID, uint64(now-e.stageStart), e.leadID)
		e.stageStart = 0
	}
	e.m.eventBatch.Observe(e.coreID, uint64(e.q.Commit(now)))
	if e.lost > 0 {
		e.m.flight.Note(e.coreID, metrics.FlightRingOverflow, int64(e.lost), 0)
	}
	e.staged, e.lost = 0, 0
}

// markDirty enrolls a stream for the flush-timeout scan. Streams with no
// flush timeout are kept out of the set entirely: at a million concurrent
// flows, enrolling every buffered stream would make each CheckTimers tick
// walk the whole table for a timeout that can never fire (the ctrl path
// re-enrolls a stream when a timeout is set later).
func (e *Engine) markDirty(s *flowtab.Stream, x *streamExt) {
	if s.FlushTimeout <= 0 {
		return
	}
	if x.chunk.fill() > x.chunk.overlapLen || x.chunk.extraAcct > 0 {
		e.dirty[s] = struct{}{}
	}
}

// reachCutoff transitions a stream to the cutoff state: its last chunk is
// delivered, further data is discarded, and — with FDIR enabled — the NIC
// stops delivering its data packets at all (subzero copy).
func (e *Engine) reachCutoff(s *flowtab.Stream, x *streamExt) {
	if s.Status != flowtab.StatusActive {
		return
	}
	s.Status = flowtab.StatusCutoff
	e.m.flight.Note(e.coreID, metrics.FlightCutoff, int64(s.ID), int64(s.Stats.Bytes))
	e.janomaly(s, x, streamscope.AnomCutoff, streamscope.EvCutoff, int64(s.Stats.CapturedBytes), int64(s.Stats.Bytes))
	e.deliverChunk(s, x, false)
	e.installFDIR(s, x)
	// With the sketch front-end on, a cutoff stream of suppressible
	// priority no longer needs its record: schedule retirement for the end
	// of the packet (finishRetired).
	if e.sketch != nil && s.Priority <= e.cfg.Sketch.SuppressMaxPriority {
		e.retire = s
	}
}

// installFDIR installs the per-stream drop-filter pair: ACK-only and
// ACK|PSH data packets die at the NIC while RST/FIN still reach the engine
// for termination and FIN-sequence statistics (§5.5).
func (e *Engine) installFDIR(s *flowtab.Stream, x *streamExt) {
	if !e.cfg.UseFDIR || e.nicDev == nil || !e.caps.HasFilters() || s.HWFilter || s.Key.Proto != pkt.ProtoTCP {
		return
	}
	deadline := e.now + x.filterTimeout
	for _, flags := range []uint8{pkt.FlagACK, pkt.FlagACK | pkt.FlagPSH} {
		evicted, did, err := e.nicDev.AddFilter(nic.FilterSpec{
			Key:      s.Key,
			Flex:     nic.FlexOnlyFlags(flags),
			Action:   nic.ActionDrop,
			Deadline: deadline,
		})
		if err != nil {
			return
		}
		if did {
			// The evicted filter may belong to a stream on any core; if it
			// is ours, clear its flag so it re-installs on next packet.
			if other := e.table.Lookup(evicted); other != nil {
				other.HWFilter = false
			}
		}
	}
	s.HWFilter = true
	e.c.fdirInstalled.Add(1)
	e.m.flight.Note(e.coreID, metrics.FlightFDIRInstall, int64(s.ID), 0)
	e.janomaly(s, x, streamscope.AnomFDIR, streamscope.EvFDIRInstall, int64(s.ID), 0)
	heap.Push(&e.filters, filterEntry{deadline: deadline, key: s.Key, id: s.ID})
}

// reinstallFDIR re-adds an expired/evicted filter with a doubled timeout.
func (e *Engine) reinstallFDIR(s *flowtab.Stream, x *streamExt) {
	if !e.cfg.UseFDIR || e.nicDev == nil || !e.caps.HasFilters() || s.Key.Proto != pkt.ProtoTCP {
		return
	}
	if s.HWFilter {
		// A data packet slipped past an installed filter (e.g. TCP
		// options changed the flex bytes); nothing to do.
		return
	}
	const maxFilterTimeout = int64(3600e9)
	x.filterTimeout *= 2
	if x.filterTimeout > maxFilterTimeout {
		x.filterTimeout = maxFilterTimeout
	}
	e.installFDIR(s, x)
}

// removeFDIR removes a stream's filters on termination.
func (e *Engine) removeFDIR(s *flowtab.Stream) {
	if s.HWFilter && e.nicDev != nil {
		e.nicDev.RemoveFilters(s.Key, false)
		s.HWFilter = false
		e.c.fdirRemoved.Add(1)
		e.m.flight.Note(e.coreID, metrics.FlightFDIRRemove, int64(s.ID), 0)
	}
}

// terminatePair ends both directions of a connection.
func (e *Engine) terminatePair(s *flowtab.Stream, status flowtab.Status) {
	opp := s.Opposite
	e.finishStream(s, status)
	if opp != nil && opp.InTable() {
		e.finishStream(opp, status)
	}
}

// finishStream flushes, emits the final data and termination events, and
// retires the record.
func (e *Engine) finishStream(s *flowtab.Stream, status flowtab.Status) {
	x := ext(s)
	if s.Asm != nil {
		e.curStream, e.curExt = s, x
		s.Asm.Flush(e.flushCb)
	}
	if s.Status == flowtab.StatusActive || s.Status == flowtab.StatusCutoff {
		e.deliverChunk(s, x, true)
	} else {
		e.dropChunk(s, x)
	}
	s.Status = status
	s.Error |= func() reassembly.Flags {
		if s.Asm != nil {
			return s.Asm.Flags()
		}
		return 0
	}()
	switch status {
	case flowtab.StatusClosed:
		e.c.streamsClosed.Add(1)
	case flowtab.StatusTimedOut:
		e.c.streamsExpired.Add(1)
	case flowtab.StatusEvicted:
		e.c.streamsEvicted.Add(1)
	}
	if (status == flowtab.StatusTimedOut || status == flowtab.StatusEvicted) && e.mm.UnderPPL() {
		e.m.flight.Note(e.coreID, metrics.FlightStreamExpire, int64(s.ID), int64(status))
	}
	if s.Asm != nil {
		as := s.Asm.Stats()
		e.c.asmDuplicateBytes.Add(as.DuplicateBytes)
		e.c.asmDeliveredBytes.Add(as.DeliveredBytes)
		e.c.asmHolesSkipped.Add(as.HolesSkipped)
		e.c.asmOutOfOrder.Add(as.OutOfOrderSegs)
		e.c.asmDroppedSegs.Add(as.DroppedSegments)
	}
	e.removeFDIR(s)
	e.jnote(x, streamscope.EvClose, int64(status), int64(s.Stats.CapturedBytes))
	if !x.ignored {
		e.emit(e.stage(event.Termination, s, x.chunksDelivered))
	}
	delete(e.dirty, s)
	e.table.Remove(s)
	// Park the per-stream state for the next stream: the extension zeroed
	// here, the assembler reset when it is taken (newAsm knows the config).
	*x = streamExt{}
	e.freeExt = append(e.freeExt, x)
	if s.Asm != nil {
		e.freeAsm = append(e.freeAsm, s.Asm)
	}
	e.table.Recycle(s)
}

// CheckTimers advances the engine's clock work: control messages, flush
// timeouts, inactivity expiry, defragmenter expiry, and FDIR filter
// deadlines. Drivers call it periodically (the paper's kernel module does
// the same from a timer).
func (e *Engine) CheckTimers(now int64) {
	if now > e.now {
		e.now = now
	}
	e.drainCtrl()
	e.flushStaleChunks(now)
	e.expireIdle(now)
	e.expireFilters(now)
	if e.sketch != nil {
		e.installSketchFDIR(now)
	}
	e.publishTableMetrics()
	if e.scope != nil {
		// Journal sampling backs off while the arena is above the PPL
		// watermark and recovers afterwards (Braun-style load adaptation),
		// paced by the timer tick.
		e.scope.Adapt(e.mm.UnderPPL())
	}
	if e.defrag != nil {
		e.defrag.Expire(now)
	}
	e.flushEvents()
}

func (e *Engine) drainCtrl() {
	e.ctrlBuf = e.ctrl.drain(e.ctrlBuf)
	for i := range e.ctrlBuf {
		e.applyCtrl(e.ctrlBuf[i])
	}
	// Control-driven cutoffs (OpSetCutoff) schedule retirement too.
	e.finishRetired()
}

// flushStaleChunks delivers partial chunks older than their stream's flush
// timeout.
func (e *Engine) flushStaleChunks(now int64) {
	for s := range e.dirty {
		x := ext(s)
		ft := s.FlushTimeout
		if ft <= 0 {
			continue
		}
		if x.chunk.fill() > x.chunk.overlapLen && now-x.chunk.firstTS >= ft {
			e.deliverChunk(s, x, false)
		}
	}
}

// sweepGroupsPerTimer bounds the expiry sweep's work per CheckTimers call:
// 4096 slot groups (32768 slots), so tables up to that size are still fully
// scanned in one call — the historical per-timer behavior — while
// million-flow tables amortize the scan across successive calls, keeping
// each timer tick O(1) instead of O(table).
const sweepGroupsPerTimer = 4096

// expireIdle removes streams idle past their inactivity timeout using the
// table's incremental generation sweep (§5.2). Victims are collected during
// the sweep and finished after it, since finishing mutates the table.
func (e *Engine) expireIdle(now int64) {
	e.victims = e.victims[:0]
	e.table.Sweep(now, sweepGroupsPerTimer, func(s *flowtab.Stream) {
		if s.HWFilter {
			// The NIC is dropping this stream's packets on our behalf;
			// silence is expected, not inactivity. The filter's own
			// deadline (expireFilters) restores visibility first.
			return
		}
		tmo := s.InactivityTimeout
		if tmo <= 0 {
			tmo = e.cfg.InactivityTimeout
		}
		if s.LastAccess()+tmo <= now {
			e.victims = append(e.victims, s)
		}
	})
	for _, s := range e.victims {
		if s.InTable() {
			e.finishStream(s, flowtab.StatusTimedOut)
		}
	}
	clear(e.victims)
}

// expireFilters removes FDIR filters whose deadline passed; the stream (if
// still alive) will re-install with a doubled timeout when its packets
// reappear.
func (e *Engine) expireFilters(now int64) {
	for len(e.filters) > 0 && e.filters[0].deadline <= now {
		fe := heap.Pop(&e.filters).(filterEntry)
		if e.nicDev != nil {
			if removed := e.nicDev.RemoveFilters(fe.key, false); removed > 0 {
				e.c.fdirRemoved.Add(1)
				e.m.flight.Note(e.coreID, metrics.FlightFDIRRemove, int64(fe.id), 0)
			}
		}
		if s := e.table.Lookup(fe.key); s != nil && s.ID == fe.id {
			s.HWFilter = false
		} else if s == nil && e.sketch != nil {
			// No record claims this key: the filters belonged to a retired
			// (sketch-handled) flow. Clear the heavy entry's mark so a
			// still-heavy flow is re-nominated by installSketchFDIR.
			e.sketch.ClearFDIR(e.table.Hash(fe.key))
		}
		if fe.id == 0 && e.sketchFDIRLive > 0 {
			// id 0 marks sketch-owned entries; its expiry frees budget.
			e.sketchFDIRLive--
		}
	}
}

// installSketchFDIR nominates sketch heavy hitters for NIC drop-filter
// pairs: flows big enough to have passed a cutoff, with no record left to
// drive the per-stream install path — §5.5 subzero copy driven from the
// sketch, so record-suppressed elephants stop costing even the sketch
// update. Runs from the timer path at heavy-table granularity.
func (e *Engine) installSketchFDIR(now int64) {
	if !e.cfg.UseFDIR || e.nicDev == nil || !e.caps.HasFilters() {
		return
	}
	e.sketch.ForEachHeavy(func(hf *sketch.Heavy) {
		if e.sketchFDIRBudget >= 0 && e.sketchFDIRLive >= e.sketchFDIRBudget {
			return // budget exhausted: wait for installed filters to expire
		}
		if hf.FDIR || hf.Key.Proto != pkt.ProtoTCP || hf.Priority > e.cfg.Sketch.SuppressMaxPriority {
			return
		}
		if e.table.Lookup(hf.Key) != nil {
			return // tracked: the record's own cutoff path owns its filters
		}
		deadline := now + e.cfg.InactivityTimeout
		for _, flags := range []uint8{pkt.FlagACK, pkt.FlagACK | pkt.FlagPSH} {
			evicted, did, err := e.nicDev.AddFilter(nic.FilterSpec{
				Key:      hf.Key,
				Flex:     nic.FlexOnlyFlags(flags),
				Action:   nic.ActionDrop,
				Deadline: deadline,
			})
			if err != nil {
				return
			}
			if did {
				if other := e.table.Lookup(evicted); other != nil {
					other.HWFilter = false
				}
				e.sketch.ClearFDIR(e.table.Hash(evicted))
			}
		}
		hf.FDIR = true
		e.c.fdirInstalled.Add(1)
		e.m.flight.Note(e.coreID, metrics.FlightFDIRInstall, 0, 0)
		// id 0 never matches a stream ID, marking the entry sketch-owned.
		heap.Push(&e.filters, filterEntry{deadline: deadline, key: hf.Key, id: 0})
		e.sketchFDIRLive++
	})
}

// publishTableMetrics copies the flow table's plain counters (as deltas)
// and occupancy gauges into the registry, and publishes a fresh sketch
// snapshot. Timer-path only, so the hot path never touches the registry for
// table bookkeeping.
func (e *Engine) publishTableMetrics() {
	t := e.table
	e.c.flowtabLookups.Add(t.Lookups - e.prevLookups)
	e.prevLookups = t.Lookups
	e.c.flowtabProbes.Add(t.Probes - e.prevProbes)
	e.prevProbes = t.Probes
	e.c.flowtabSwept.Add(t.SweptGroups - e.prevSwept)
	e.prevSwept = t.SweptGroups
	e.c.flowtabGrows.Add(t.Grows - e.prevGrows)
	e.prevGrows = t.Grows
	e.c.flowtabOccupancy.Set(int64(t.Len()))
	e.c.flowtabCapacity.Set(int64(t.Cap()))
	e.c.flowtabTombstones.Set(int64(t.Tombstones()))
	if e.sketch != nil {
		e.c.sketchObservedPkts.Add(e.sketch.ObservedPkts() - e.prevSkPkts)
		e.prevSkPkts = e.sketch.ObservedPkts()
		e.c.sketchObservedBytes.Add(e.sketch.ObservedBytes() - e.prevSkBytes)
		e.prevSkBytes = e.sketch.ObservedBytes()
		e.c.sketchHeavies.Set(int64(e.sketch.HeavyCount()))
		e.sketch.Publish()
	}
}

// Shutdown terminates every tracked stream, emitting final events.
func (e *Engine) Shutdown() {
	e.drainCtrl()
	var all []*flowtab.Stream
	e.table.Walk(func(s *flowtab.Stream) bool {
		all = append(all, s)
		return true
	})
	for _, s := range all {
		if s.InTable() {
			e.finishStream(s, flowtab.StatusTimedOut)
		}
	}
	e.flushEvents()
}
