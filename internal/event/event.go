// Package event implements the per-core event queues between the Scap
// kernel-path engine and the user-level worker threads (paper §5.4): stream
// creation, stream data, and stream termination events, carried in a
// single-producer single-consumer lock-free ring with slow-path parking.
package event

import (
	"sync/atomic"

	"scap/internal/flowtab"
	"scap/internal/mem"
)

// Type discriminates events.
type Type uint8

const (
	// Creation fires when a new stream is tracked.
	Creation Type = iota
	// Data fires when a chunk is ready: full, flushed by timeout, cut off,
	// or final at termination.
	Data
	// Termination fires when a stream ends (FIN/RST, timeout, eviction).
	Termination
)

func (t Type) String() string {
	switch t {
	case Creation:
		return "creation"
	case Data:
		return "data"
	case Termination:
		return "termination"
	}
	return "unknown"
}

// Event is one queue entry. Data events carry the chunk payload; the slice
// is owned by the stream's chunk storage and is valid until the worker
// returns from its callback (after which the engine may recycle it).
type Event struct {
	Type Type
	// Stream is the live kernel record. Workers must not dereference it —
	// it is mutated concurrently by the engine; it serves only as an
	// opaque handle for control operations (validated against Info.ID).
	Stream *flowtab.Stream
	// Info is the consistent snapshot taken when the event was enqueued.
	Info flowtab.Info
	// Chunk fields, meaningful for Data events.
	Data       []byte
	HoleBefore bool // reassembly skipped a hole before this chunk
	Last       bool // final chunk of the stream
	// Accounted is how many bytes of Data count against the stream-memory
	// budget (overlap bytes carried from the previous chunk are not
	// counted twice); the consumer releases them after the callback.
	Accounted int
	// Block is the arena block backing Data (and the Pkts slab). The
	// consumer owns it for the callback's duration, then either returns it
	// to the block pool (mem.ReturnBlocks) or hands it back to the engine
	// via a KeepChunk control message. The zero value means no block (e.g.
	// creation/termination events).
	Block mem.Handle
	// Pkts are the per-packet records for scap_next_stream_packet, present
	// when the socket was created with packet delivery enabled.
	Pkts []PacketRecord
	// EnqueueNS is the capture-clock (metrics.Nanotime) stamp taken when the
	// engine published the event to the ring; the worker diffs it at pop time
	// into the ring→worker stage-latency histogram. Zero means unstamped.
	EnqueueNS int64
}

// PacketRecord describes one captured packet of a chunk for packet-based
// delivery (paper §5.7): a capture header plus the location of the
// packet's payload bytes within the chunk.
type PacketRecord struct {
	TS      int64
	WireLen int
	CapLen  int
	Seq     uint32
	Flags   uint8
	// Off/Len locate the payload inside the chunk's Data; Len 0 means the
	// bytes are not present in this chunk (duplicate or dropped data).
	Off int32
	Len int32
}

// Queue is the per-core event ring: a lock-free single-producer
// single-consumer ring buffer. The kernel-path engine is the only producer;
// the worker thread draining a given queue is the only consumer (Close and
// the read-only accessors may be called from anywhere).
//
// Slot protocol: events are built and consumed in the ring's own slots, so
// the hop costs no copy of the 320-byte Event. The producer claims the next
// slot with Reserve (all zero when handed out), fills it in place, and makes
// every slot claimed so far visible with one Commit — one tail store and at
// most one wakeup however many events a burst produced. The consumer borrows
// the published slots with View (a slice of the ring itself, up to the wrap
// point), dispatches from them, and hands them back with Release, which
// zeroes them — dropping their chunk references — before the head store lets
// the producer claim them again. A viewed slot therefore stays the
// consumer's until Release: the producer never writes past head+Cap. Push,
// PushBatch, Poll, PopBatch and Wait are the copying veneers over the same
// cursors, for callers that hold events of their own.
//
// Memory model: the producer writes buf slots and then publishes them with
// tail.Store; the consumer observes tail.Load before reading the slots, so
// the atomic pair carries the happens-before edge. Symmetrically the
// consumer zeroes a drained slot before head.Store, and the producer checks
// head.Load before reusing it. head and tail are free-running uint64
// cursors (they never wrap in practice); capacity is a power of two so slot
// indexing is a mask, and tail-head is the queue length. Each side keeps a
// cached snapshot of the other side's cursor (headCache, tailCache) and
// refreshes it only when the cached value implies full/empty, which keeps
// the fast path free of cross-core cache-line traffic.
//
// Blocking is slow-path-only: WaitView advertises the consumer as parked
// (parked.Store), re-polls to close the race with a concurrent publish, and
// only then blocks on the wake channel. The producer wakes it only on a
// parked→unparked transition instead of signaling per event. With Go's
// sequentially consistent atomics, either the parked consumer's re-poll
// observes the producer's tail.Store, or the producer's parked.Load
// observes parked=true and sends the wakeup — a lost sleep is impossible.
// Spurious tokens (producer observed parked just as the consumer unparked
// itself) merely cause one extra loop iteration.
//
//scap:shared
//scap:spsc producer=engine consumer=worker
type Queue struct {
	buf  []Event
	mask uint64

	// Producer-owned cache line: the published write cursor, the reserve
	// cursor running ahead of it (tail <= resv; the slots between are
	// claimed but not yet visible), and the producer's snapshot of the
	// consumer cursor.
	_         [64]byte
	tail      atomic.Uint64
	resv      uint64
	headCache uint64

	// Consumer-owned cache line: the read cursor and the consumer's
	// snapshot of the producer cursor.
	_         [64]byte
	head      atomic.Uint64
	tailCache uint64

	// Shared cold state: touched only on overflow, park, and shutdown.
	_       [64]byte
	dropped atomic.Uint64
	closed  atomic.Bool
	parked  atomic.Bool
	wake    chan struct{}
}

// DefaultQueueCap is the default ring capacity.
const DefaultQueueCap = 1 << 16

// NewQueue creates a queue with at least the given capacity (0 selects the
// default). Capacity is rounded up to a power of two; Cap reports the
// actual value.
func NewQueue(capacity int) *Queue {
	if capacity <= 0 {
		capacity = DefaultQueueCap
	}
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &Queue{
		buf:  make([]Event, n),
		mask: uint64(n - 1),
		wake: make(chan struct{}, 1),
	}
}

// wakeConsumer unparks the consumer if it advertised itself as parked. The
// CAS guarantees at most one side sends the token for a given park, and the
// buffered channel makes the send non-blocking.
func (q *Queue) wakeConsumer() {
	if q.parked.Load() && q.parked.CompareAndSwap(true, false) {
		select {
		case q.wake <- struct{}{}:
		default:
		}
	}
}

// free returns how many slots the producer may still claim, refreshing its
// snapshot of the consumer cursor only when the cached one cannot cover
// want.
func (q *Queue) free(want uint64) uint64 {
	n := uint64(len(q.buf)) - (q.resv - q.headCache)
	if n < want {
		q.headCache = q.head.Load()
		n = uint64(len(q.buf)) - (q.resv - q.headCache)
	}
	return n
}

// publish makes every claimed slot visible to the consumer: one tail store
// and at most one wakeup.
func (q *Queue) publish() {
	q.tail.Store(q.resv)
	q.wakeConsumer()
}

// Reserve claims the next ring slot for the producer to build an event in
// place. The slot is all zero. It returns nil — counting a drop — when the
// ring is full, and nil without a count when the queue is closed; the
// caller accounts the event as lost either way. Claimed slots stay
// invisible to the consumer until Commit. Producer side only.
//
//scap:hotpath
//scap:produce
func (q *Queue) Reserve() *Event {
	r := q.resv
	if r-q.headCache >= uint64(len(q.buf)) || q.closed.Load() {
		return q.reserveSlow()
	}
	q.resv = r + 1
	return &q.buf[r&q.mask]
}

// reserveSlow is Reserve when the cached consumer cursor says full (or the
// queue is closed): it refreshes the snapshot and either claims the slot
// after all or refuses it, off the fast path.
func (q *Queue) reserveSlow() *Event {
	if q.closed.Load() {
		return nil
	}
	if q.free(1) == 0 {
		q.dropped.Add(1)
		return nil
	}
	q.resv++
	return &q.buf[(q.resv-1)&q.mask]
}

// Commit publishes the slots claimed since the last publication, stamping
// each with enqueueNS (Event.EnqueueNS: one capture-clock read covers the
// flush), and returns how many there were. Slots claimed before a Close are
// still published — they stay drainable like any event pushed ahead of it.
// Producer side only.
//
//scap:hotpath
//scap:produce
func (q *Queue) Commit(enqueueNS int64) int {
	t := q.tail.Load()
	if t == q.resv {
		return 0
	}
	for i := t; i != q.resv; i++ {
		q.buf[i&q.mask].EnqueueNS = enqueueNS
	}
	q.publish()
	return int(q.resv - t)
}

// Push enqueues an event; it reports false if the ring is full (counting a
// drop) or closed. Producer side only.
//
//scap:hotpath
//scap:produce
func (q *Queue) Push(e Event) bool {
	slot := q.Reserve()
	if slot == nil {
		return false
	}
	*slot = e
	q.publish()
	return true
}

// PushBatch enqueues as many of evs as fit and returns how many were
// accepted (0 if the queue is closed). Events beyond the accepted prefix
// are counted as drops; the caller unwinds their accounting. One tail
// publication and at most one wakeup cover the whole batch (and any slots
// reserved ahead of it). Producer side only.
//
//scap:hotpath
//scap:produce
func (q *Queue) PushBatch(evs []Event) int {
	if len(evs) == 0 || q.closed.Load() {
		return 0
	}
	k := uint64(len(evs))
	if free := q.free(k); k > free {
		q.dropped.Add(k - free)
		k = free
	}
	if k == 0 {
		return 0
	}
	// Two block copies: up to the wrap point, then the remainder.
	n := copy(q.buf[q.resv&q.mask:], evs[:k])
	copy(q.buf, evs[n:k])
	q.resv += k
	q.publish()
	return int(k)
}

// View returns up to max published events as a slice of the ring itself —
// the contiguous run from the read cursor, ending at the wrap point if that
// comes first (the next View continues past it). The slots belong to the
// consumer until Release. Consumer side only.
//
//scap:hotpath
//scap:consume
func (q *Queue) View(max int) []Event {
	h := q.head.Load()
	avail := q.tailCache - h
	if avail < uint64(max) {
		// The cached tail can't fill the whole view; refresh it so one
		// wakeup drains as much as the producer has published.
		q.tailCache = q.tail.Load()
		avail = q.tailCache - h
	}
	i := h & q.mask
	n := min(avail, uint64(max), uint64(len(q.buf))-i)
	return q.buf[i : i+n]
}

// Release hands the first n slots of the last View back to the producer,
// zeroing them first so a delivered chunk is not pinned until the ring
// comes round again and Reserve can promise a zero slot. Consumer side
// only.
//
//scap:hotpath
//scap:consume
func (q *Queue) Release(n int) {
	h := q.head.Load()
	if uint64(n) > q.tailCache-h {
		panic("event: Release of more slots than were viewed")
	}
	i := h & q.mask
	clear(q.buf[i : i+uint64(n)])
	q.head.Store(h + uint64(n))
}

// Poll removes the next event without blocking. Consumer side only.
//
//scap:consume
func (q *Queue) Poll() (e Event, ok bool) {
	v := q.View(1)
	if len(v) == 0 {
		return e, false
	}
	e = v[0]
	q.Release(1)
	return e, true
}

// PopBatch drains up to len(dst) events into dst and returns the count.
// Consumer side only.
//
//scap:consume
func (q *Queue) PopBatch(dst []Event) int {
	n := 0
	for n < len(dst) {
		v := q.View(len(dst) - n)
		if len(v) == 0 {
			break
		}
		n += copy(dst[n:], v)
		q.Release(len(v))
	}
	return n
}

// WaitView blocks until at least one event is published and returns them
// like View; it returns false only when the queue is closed and drained —
// the worker's park. Consumer side only.
//
//scap:consume
func (q *Queue) WaitView(max int) ([]Event, bool) {
	for {
		if v := q.View(max); len(v) > 0 {
			return v, true
		}
		if q.closed.Load() {
			// A push may have raced ahead of Close; drain it.
			v := q.View(max)
			return v, len(v) > 0
		}
		q.parked.Store(true)
		// Re-poll after advertising the park: a producer that published
		// before seeing parked=true is caught here, so the block below
		// can never miss its wakeup.
		if v := q.View(max); len(v) > 0 {
			q.parked.Store(false)
			return v, true
		}
		if q.closed.Load() {
			q.parked.Store(false)
			v := q.View(max)
			return v, len(v) > 0
		}
		<-q.wake
	}
}

// Wait blocks until an event is available or the queue is closed; it
// returns false only when closed and drained. Consumer side only.
//
//scap:consume
func (q *Queue) Wait() (e Event, ok bool) {
	v, ok := q.WaitView(1)
	if !ok {
		return e, false
	}
	e = v[0]
	q.Release(1)
	return e, true
}

// Len returns the number of queued events (a racy snapshot when the queue
// is in motion).
func (q *Queue) Len() int {
	t := q.tail.Load()
	h := q.head.Load()
	if h >= t {
		return 0
	}
	return int(t - h)
}

// Cap returns the ring capacity (the requested capacity rounded up to a
// power of two).
func (q *Queue) Cap() int { return len(q.buf) }

// Dropped returns the number of events discarded because the ring was full
// — the analogue of a packet-capture buffer overflowing.
func (q *Queue) Dropped() uint64 { return q.dropped.Load() }

// Close wakes a parked consumer; subsequent pushes fail. Pending events
// remain drainable via Poll/Wait. Safe to call from any goroutine.
func (q *Queue) Close() {
	q.closed.Store(true)
	// Unconditional token: the consumer may be between advertising the
	// park and blocking, so the parked flag alone cannot be trusted here.
	select {
	case q.wake <- struct{}{}:
	default:
	}
}
