package scap

import (
	"errors"
	"fmt"
	"io"
	"net/netip"
	"os"
	"sync"
	"time"

	"scap/internal/core"
	"scap/internal/event"
	"scap/internal/flowtab"
	"scap/internal/mem"
	"scap/internal/metrics"
	"scap/internal/nic"
	"scap/internal/trace"
)

// captureState owns the running goroutines of a started socket: one kernel
// goroutine per backend queue and the configured number of worker
// goroutines — the user-space equivalent of the paper's per-core kernel
// thread plus worker thread pairs.
//
// Concurrency model: each engine is owned by its kernel goroutine (frames
// reach it only through its queue's backend Batches channel); workers
// touch streams only via the per-engine ctrl queue; injectors serialize
// on injectMu; everything else a foreign goroutine may read (engine
// counters, backend stats, memory accounting) is protected at its source.
type captureState struct {
	h *Handle

	mu sync.Mutex
	// stopped is guarded by mu, making stop idempotent.
	stopped  bool
	kernelWG sync.WaitGroup
	workerWG sync.WaitGroup

	injectMu sync.Mutex
	// lastTS is guarded by injectMu: concurrent injectors, the backend's
	// delivered batches, and the timer tick agree on a monotonic virtual
	// clock through it.
	lastTS    int64
	timerStop chan struct{}
}

// injectBatchSize is how many frames the replay paths accumulate before
// handing them to the kernel goroutines in one batch.
const injectBatchSize = 64

func newCaptureState(h *Handle) *captureState {
	return &captureState{h: h, timerStop: make(chan struct{})}
}

func (c *captureState) start() {
	h := c.h
	// Kernel goroutines: one per backend queue, each owning its engine.
	for q := 0; q < h.backend.Queues(); q++ {
		c.kernelWG.Add(1)
		go c.kernelLoop(q)
	}
	// Worker goroutines.
	for w := 0; w < h.workers; w++ {
		c.workerWG.Add(1)
		go c.workerLoop(w)
	}
}

// kernelLoop is one core's softirq-equivalent: it pulls frame batches for
// its queue from the capture backend and drives the engine, running timer
// work between batches. One runs per backend queue, and it is the sole
// goroutine driving that queue's Engine — the producer side of the
// engine's event ring and the consumer side of its arena free pool. After
// each batch it folds the last frame timestamp into the virtual clock, so
// source-driven backends (pcap replay, AF_PACKET) advance timer time the
// way the injection paths do on the simulated NIC.
//
//scap:goroutine engine
func (c *captureState) kernelLoop(q int) {
	defer c.kernelWG.Done()
	eng := c.h.engines[q]
	batches := c.h.backend.Batches(q)
	ticker := time.NewTicker(50 * time.Millisecond)
	defer ticker.Stop()
	for {
		select {
		case batch, ok := <-batches:
			if !ok {
				return
			}
			eng.HandleFrames(batch)
			if n := len(batch); n > 0 {
				c.noteTS(batch[n-1].TS)
			}
			if sim := c.h.sim; sim != nil {
				sim.Recycle(batch)
			}
		case <-ticker.C:
			eng.CheckTimers(c.currentTS())
		}
	}
}

// workerBatch is how many events a worker drains from a ring per wakeup.
const workerBatch = 128

// workerState is one worker's scratch: per-stream bookkeeping, the reused
// Stream view handed to callbacks, and the batched memory-release
// accumulators. The worker goroutine owns it exclusively.
type workerState struct {
	// kept holds chunks the application asked to keep
	// (scap_keep_stream_chunk), keyed by stream ID: the merged bytes so far,
	// still charged to stream memory, backed by the retained arena block.
	kept map[uint64]keptChunk
	view Stream
	// last is the capture-clock reading at the end of the previous callback
	// (seeded by the batch's pop stamp): callbacks are timed as the interval
	// between consecutive completions, one clock read per event.
	last int64
	// pendingRelease accumulates delivered chunks' Accounted bytes; they
	// are returned to the memory manager in one Release per drained batch
	// (and before parking), not one per event.
	pendingRelease int
	// blocks accumulates consumed chunks' arena blocks, all owed to
	// blockCore's free pool; they ride the same batched flush. A worker
	// drains each queue's events in order, so the batch naturally groups by
	// core — switching queues flushes the previous core's batch.
	blocks    []mem.Handle
	blockCore int
}

// procTimes is one event queue's ProcessingTime store: cumulative callback
// time per stream, in pages indexed by the stream record's slab index
// (flowtab.Info.Ref) instead of a map keyed by stream ID. A slab record is
// reused by later streams, so each entry remembers whose time it holds and
// restarts at zero for a new ID — which also makes it indifferent to lost
// creation or termination events. One engine's events reach one worker in
// FIFO order, so the worker draining the queue is the only one to touch it.
type procTimes struct {
	pages [][]procEntry
}

type procEntry struct {
	id  uint64
	cum time.Duration
}

const procPageBits = 12

// entry returns the slot for the stream an event describes, reset if the
// slab record has changed hands since it was last used.
//
//scap:hotpath
func (p *procTimes) entry(info *flowtab.Info) *procEntry {
	pg := int(info.Ref >> procPageBits)
	if pg >= len(p.pages) || p.pages[pg] == nil {
		p.grow(pg)
	}
	pe := &p.pages[pg][info.Ref&(1<<procPageBits-1)]
	if pe.id != info.ID {
		*pe = procEntry{id: info.ID}
	}
	return pe
}

// grow materializes page pg. Cold: the store grows with the engine's record
// slab (one 64 KiB page per 4096 records) and never shrinks.
func (p *procTimes) grow(pg int) {
	for len(p.pages) <= pg {
		p.pages = append(p.pages, nil)
	}
	p.pages[pg] = make([]procEntry, 1<<procPageBits)
}

// keptChunk is one kept chunk between deliveries: data is the merged bytes,
// a prefix view of blk's storage (blk is NoBlock once the merge outgrew the
// block and moved to the heap), acct the stream-memory charge the bytes
// carry, and core the engine that owns both the block and the charge.
type keptChunk struct {
	data []byte
	blk  mem.Handle
	acct int
	core int
}

// forget drops a terminated stream's kept chunk, releasing its charge and
// block.
func (c *captureState) forget(ws *workerState, id uint64) {
	if len(ws.kept) > 0 {
		if k, ok := ws.kept[id]; ok {
			delete(ws.kept, id)
			ws.pendingRelease += k.acct
			c.returnBlock(ws, k.core, k.blk)
		}
	}
}

// flushReleases returns the accumulated chunk bytes to the memory budget
// and the accumulated blocks to their core's free pool.
func (c *captureState) flushReleases(ws *workerState) {
	if ws.pendingRelease > 0 {
		c.h.mm.Release(ws.pendingRelease)
		ws.pendingRelease = 0
	}
	if len(ws.blocks) > 0 {
		c.h.mm.ReturnBlocks(ws.blockCore, ws.blocks)
		ws.blocks = ws.blocks[:0]
	}
}

// returnBlock queues one consumed block for the batched return. This worker
// is the only goroutine draining core's event queue, so it is also the only
// producer of that core's SPSC return ring.
func (c *captureState) returnBlock(ws *workerState, core int, h mem.Handle) {
	if h == mem.NoBlock {
		return
	}
	if core != ws.blockCore && len(ws.blocks) > 0 {
		c.h.mm.ReturnBlocks(ws.blockCore, ws.blocks)
		ws.blocks = ws.blocks[:0]
	}
	ws.blockCore = core
	ws.blocks = append(ws.blocks, h)
}

// workerLoop drains the worker's event queues a batch at a time,
// dispatching callbacks (the Scap stub's event-dispatch loop, §5.8). It is
// the consumer side of its queues' event rings and the producer side of
// the corresponding cores' arena return rings.
//
//scap:goroutine worker
func (c *captureState) workerLoop(w int) {
	defer c.workerWG.Done()
	h := c.h
	ws := &workerState{kept: make(map[uint64]keptChunk)}
	// The final flush covers whatever the last batch left pending, so
	// accounting reaches zero once the queues are drained.
	defer c.flushReleases(ws)
	// Kept chunks normally die with their stream's termination event; if
	// that event was lost to a full ring, settle the leftovers here so the
	// charge and the block still return to the pools.
	defer func() {
		for _, k := range ws.kept {
			ws.pendingRelease += k.acct
			c.returnBlock(ws, k.core, k.blk)
		}
		clear(ws.kept)
	}()
	var qs []*event.Queue
	var engs []*core.Engine
	for q := w; q < len(h.queues); q += h.workers {
		qs = append(qs, h.queues[q])
		engs = append(engs, h.engines[q])
	}
	procs := make([]procTimes, len(qs))
	// Events are dispatched from the ring's own slots: a view stays the
	// worker's until Release, which also zeroes the slots so delivered
	// chunks are collectable; the batch's memory goes back in one release.
	drain := func(i int, evs []event.Event) {
		h.workerBatchH.Observe(w, uint64(len(evs)))
		c.dispatchBatch(engs[i], &procs[i], evs, ws)
		qs[i].Release(len(evs))
		c.flushReleases(ws)
	}
	for live := len(qs); live > 0; {
		progressed := false
		for i, q := range qs {
			if q == nil {
				continue
			}
			if evs := q.View(workerBatch); len(evs) > 0 {
				progressed = true
				drain(i, evs)
			}
		}
		if progressed {
			continue
		}
		// Park on the first open queue; others are polled again after it
		// yields (single-queue-per-worker is the common configuration,
		// where the park alone drives the loop). flushReleases ran after
		// the last batch, so nothing is held back while parked.
		i := 0
		for qs[i] == nil {
			i++
		}
		evs, ok := qs[i].WaitView(workerBatch)
		if !ok {
			qs[i] = nil
			live--
			continue
		}
		drain(i, evs)
	}
}

// dispatchBatch runs the callbacks for one view of a ring. One clock read
// stamps the pop for the whole view: it closes every event's ring→worker
// latency and opens the first callback's interval.
//
//scap:hotpath
func (c *captureState) dispatchBatch(eng *core.Engine, procs *procTimes, evs []event.Event, ws *workerState) {
	popNow := metrics.Nanotime()
	ws.last = popNow
	coreID := eng.CoreID()
	for i := range evs {
		ev := &evs[i]
		if ev.EnqueueNS > 0 && popNow >= ev.EnqueueNS {
			c.h.stageWorkerH.ObserveEx(coreID, uint64(popNow-ev.EnqueueNS), ev.Info.ID)
		}
		c.dispatch(eng, procs, ev, ws)
	}
}

// dispatch runs one event's callback with a Stream view. The view struct
// is reused across events and reads the stream snapshot straight from the
// ring slot (callbacks must not retain it past their return), and
// per-stream bookkeeping is skipped entirely when no callback is registered
// for the event. A kept chunk (scap_keep_stream_chunk) is retained by the
// worker — block, bytes, and budget charge — and the next data event is
// merged into the kept block's free room before the callback sees it, so
// the invocation receives the previous and the new data together without a
// fresh allocation.
//
//scap:hotpath
func (c *captureState) dispatch(eng *core.Engine, procs *procTimes, ev *event.Event, ws *workerState) {
	h := c.h
	var fn Handler
	var kind appEventKind
	switch ev.Type {
	case event.Creation:
		fn, kind = h.onCreate, appEvCreation
	case event.Data:
		fn, kind = h.onData, appEvData
	case event.Termination:
		fn, kind = h.onClose, appEvTermination
	}
	// cur is the chunk this event presents and, afterwards, must dispose of:
	// the event's own chunk, or the kept chunk with the event's bytes merged
	// in.
	var cur keptChunk
	kept := false
	if ev.Type == event.Data {
		cur = keptChunk{data: ev.Data, blk: ev.Block, acct: ev.Accounted, core: eng.CoreID()}
		if len(ws.kept) > 0 {
			if prev, ok := ws.kept[ev.Info.ID]; ok {
				delete(ws.kept, ev.Info.ID)
				cur = c.mergeKept(ws, prev, ev)
			}
		}
	}
	if len(h.apps) > 0 || fn != nil {
		pe := procs.entry(&ev.Info)
		// Reset in place (a composite literal would be built aside and
		// copied over the view).
		sd := &ws.view
		*sd = Stream{}
		sd.info, sd.handle, sd.engine, sd.raw, sd.procCum = &ev.Info, h, eng, ev.Stream, pe.cum
		if ev.Type == event.Data {
			sd.Data = cur.data
			sd.HoleBefore = ev.HoleBefore
			sd.Last = ev.Last
			sd.pkts = ev.Pkts
		}
		if len(h.apps) > 0 {
			h.dispatchApps(kind, sd)
		} else {
			fn(sd)
		}
		// The end of this callback is the start of the next one's interval.
		now := metrics.Nanotime()
		dur := time.Duration(now - ws.last)
		ws.last = now
		pe.cum += dur
		h.callbackH.ObserveEx(eng.CoreID(), uint64(dur), ev.Info.ID)
		kept = ev.Type == event.Data && sd.keep && !ev.Last
	}
	switch ev.Type {
	case event.Data:
		if kept {
			// The chunk stays charged to stream memory and its block stays
			// out of the free pool until the merged delivery is consumed.
			ws.kept[ev.Info.ID] = cur
		} else {
			if cur.acct > 0 {
				ws.pendingRelease += cur.acct
			}
			c.returnBlock(ws, cur.core, cur.blk)
			if ev.Last {
				c.forget(ws, ev.Info.ID)
			}
		}
	case event.Termination:
		c.forget(ws, ev.Info.ID)
	}
}

// mergeKept appends a data event's bytes onto the kept chunk in place: into
// the kept block's free room when they fit (blocks are sized with headroom
// above the chunk size for exactly this), spilling the merge onto the heap
// only when it outgrows the block. The event's own block is returned once
// its bytes are copied out; the combined charge rides the merged chunk.
func (c *captureState) mergeKept(ws *workerState, k keptChunk, ev *event.Event) keptChunk {
	if m := len(ev.Data); m > 0 {
		n := len(k.data)
		if k.blk != mem.NoBlock {
			if store := c.h.mm.BlockBytes(k.blk); n+m <= len(store) {
				k.data = store[:n+m]
				copy(k.data[n:], ev.Data)
			} else {
				grown := make([]byte, n+m)
				copy(grown, k.data)
				copy(grown[n:], ev.Data)
				c.returnBlock(ws, k.core, k.blk)
				k.blk = mem.NoBlock
				k.data = grown
			}
		} else {
			k.data = append(k.data, ev.Data...)
		}
	}
	k.acct += ev.Accounted
	c.returnBlock(ws, k.core, ev.Block)
	return k
}

func (c *captureState) currentTS() int64 {
	c.injectMu.Lock()
	defer c.injectMu.Unlock()
	return c.lastTS
}

// noteTS folds a backend-delivered timestamp into the virtual clock
// (max-update), so timer work keys off source time on every backend.
func (c *captureState) noteTS(ts int64) {
	c.injectMu.Lock()
	if ts > c.lastTS {
		c.lastTS = ts
	}
	c.injectMu.Unlock()
}

// inject routes one frame through the simulated NIC to its kernel
// goroutine — the single-frame veneer over injectBatch. The injector owns
// data: it goes to the NIC ring and the engine without copying. The
// one-element array stays on the stack (injectBatch does not retain its
// argument), so the fallback costs a batch fan-out but no allocation.
//
//scap:hotpath
func (c *captureState) inject(data []byte, ts int64) {
	var one [1]RawFrame
	one[0] = RawFrame{Data: data, TS: ts}
	c.injectBatch(one[:])
}

// injectBatch routes a burst of frames: the virtual-clock monotonicity
// fix-up runs once under injectMu for the whole burst (rewriting
// timestamps in place), then the simulated NIC steers the burst into one
// recycled batch per queue, delivered with a single Deliver per queue;
// kernelLoop hands each batch back when its engine is done. Steady state
// allocates nothing. Callers must only reach here when the backend is the
// sim (the public injection APIs gate on ErrNotInjectable).
func (c *captureState) injectBatch(frames []RawFrame) {
	if len(frames) == 0 {
		return
	}
	sim := c.h.sim
	//scaplint:ignore hotpathblock audited: injectors serialize once per burst, not per frame, to keep the virtual clock monotonic; ROADMAP item 2 (pre-steered parallel injectors) removes the lock
	c.injectMu.Lock()
	last := c.lastTS
	for i := range frames {
		if frames[i].TS <= last {
			frames[i].TS = last + 1
		}
		last = frames[i].TS
	}
	c.lastTS = last
	c.injectMu.Unlock()
	var stack [stackQueues][]nic.Frame
	batches := fanOut(&stack, sim.Queues())
	// One capture-clock read stamps the whole burst: the ingest→engine
	// latency histogram needs batch granularity, not a syscall per frame.
	ingest := metrics.Nanotime()
	// The NIC steers injectBatchSize frames per lock hold, so an engine
	// installing a filter never waits behind a longer burst.
	var in [injectBatchSize]nic.Frame
	for len(frames) > 0 {
		n := min(len(frames), len(in))
		for i, f := range frames[:n] {
			in[i] = nic.Frame{Data: f.Data, TS: f.TS, Ingest: ingest}
		}
		sim.ReceiveBatch(in[:n], batches)
		frames = frames[n:]
	}
	for q, b := range batches {
		if len(b) > 0 {
			sim.Deliver(q, b)
		}
	}
}

// stackQueues is the largest queue count whose fan-out header injectBatch
// keeps on its stack.
const stackQueues = 16

// fanOut returns an all-nil batch header with one entry per queue, backed
// by the caller's stack array when it fits.
func fanOut(stack *[stackQueues][]nic.Frame, queues int) [][]nic.Frame {
	if queues <= len(stack) {
		return stack[:queues]
	}
	return make([][]nic.Frame, queues)
}

// stop flushes everything and joins the goroutines.
func (c *captureState) stop() {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return
	}
	c.stopped = true
	c.mu.Unlock()

	// Closing the backend closes every Batches channel, so the kernel
	// goroutines drain whatever is buffered and exit.
	c.h.backend.Close()
	c.kernelWG.Wait()
	// Final flush: expire and terminate every stream, then close queues
	// so workers drain and exit.
	for _, eng := range c.h.engines {
		eng.Shutdown()
	}
	for _, q := range c.h.queues {
		q.Close()
	}
	c.workerWG.Wait()
	// Reap control messages the workers sent during the final drain
	// (cutoffs, discards, keeps aimed at streams that are gone): the
	// stale-message path releases anything they carried, so accounting and
	// the block pool both settle at zero.
	for _, eng := range c.h.engines {
		eng.DrainControls()
	}
}

// --- Frame input paths ---

// RawFrame is one frame for InjectBatch: raw Ethernet bytes plus a virtual
// timestamp in nanoseconds.
type RawFrame struct {
	Data []byte
	TS   int64
}

// InjectFrame feeds one raw Ethernet frame with a virtual timestamp
// (nanoseconds, strictly increasing per socket; non-increasing timestamps
// are bumped). Ownership of data transfers to the socket: the capture path
// holds the slice without copying until the frame has been processed, so
// the caller must not mutate it afterwards (handing out the same read-only
// backing repeatedly is fine). This is the lowest-level input path;
// ReplayPcap, ReplaySource, and InjectBatch are built on the same plumbing.
func (h *Handle) InjectFrame(data []byte, ts int64) error {
	if !h.started {
		return ErrNotStarted
	}
	if h.sim == nil {
		return ErrNotInjectable
	}
	h.capture.inject(data, ts)
	return nil
}

// InjectBatch feeds a burst of frames in one call: the virtual clock is
// fixed up under one lock acquisition (timestamps may be rewritten in
// place to stay strictly increasing) and each kernel goroutine receives
// its queue's frames as a single batch. As with InjectFrame, ownership of
// every Data slice transfers to the socket.
func (h *Handle) InjectBatch(frames []RawFrame) error {
	if !h.started {
		return ErrNotStarted
	}
	if h.sim == nil {
		return ErrNotInjectable
	}
	h.capture.injectBatch(frames)
	return nil
}

// ReplaySource feeds every frame from a workload source, pacing virtual
// timestamps at the given rate in bits/s (wall-clock runs as fast as the
// pipeline allows, like the paper's trace replay). It blocks until the
// source is exhausted. Frames are handed to the socket in batches without
// copying — Next relinquishes each returned slice per the trace.Source
// ownership contract.
func (h *Handle) ReplaySource(src trace.Source, bitsPerSec float64) error {
	if !h.started {
		return ErrNotStarted
	}
	if h.sim == nil {
		return ErrNotInjectable
	}
	batch := make([]RawFrame, 0, injectBatchSize)
	trace.Replay(src, bitsPerSec, func(frame []byte, ts int64) bool {
		batch = append(batch, RawFrame{Data: frame, TS: ts})
		if len(batch) == injectBatchSize {
			h.capture.injectBatch(batch)
			batch = batch[:0]
		}
		return true
	})
	h.capture.injectBatch(batch)
	return nil
}

// ReplayPcap feeds a pcap file, preserving its timestamps.
func (h *Handle) ReplayPcap(path string) error {
	if !h.started {
		return ErrNotStarted
	}
	if h.sim == nil {
		return ErrNotInjectable
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r := trace.NewPcapReader(f)
	batch := make([]RawFrame, 0, injectBatchSize)
	for {
		frame, ts, err := r.Next()
		if errors.Is(err, io.EOF) {
			h.capture.injectBatch(batch)
			return nil
		}
		if err != nil {
			return err
		}
		batch = append(batch, RawFrame{Data: frame, TS: ts})
		if len(batch) == injectBatchSize {
			h.capture.injectBatch(batch)
			batch = batch[:0]
		}
	}
}

// parsePrefix parses a CIDR or bare address into a netip.Prefix.
func parsePrefix(s string) (netip.Prefix, error) {
	if p, err := netip.ParsePrefix(s); err == nil {
		return p, nil
	}
	a, err := netip.ParseAddr(s)
	if err != nil {
		return netip.Prefix{}, fmt.Errorf("scap: bad prefix %q: %w", s, err)
	}
	return a.Prefix(a.BitLen())
}
