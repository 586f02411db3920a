package core

import (
	"scap/internal/event"
	"scap/internal/flowtab"
	"scap/internal/mem"
	"scap/internal/metrics"
	"scap/internal/reassembly"
	"scap/internal/streamscope"
)

// streamExt is the engine-private extension record hung off
// flowtab.Stream.Chunk: the current chunk under construction plus the
// engine bookkeeping the generic flow table does not know about.
type streamExt struct {
	chunk chunkState
	// chunksDelivered counts data events for this stream (sd->chunks).
	chunksDelivered uint64
	// filterTimeout is the current FDIR filter lifetime; it doubles on
	// every re-install so long-lived flows are evicted from the NIC only a
	// logarithmic number of times (paper §5.5).
	filterTimeout int64
	// ignored streams failed the socket filter: tracked for cheap
	// discarding but generating no events.
	ignored bool
	// discard set by scap_discard_stream.
	discard bool
	// finalDelivered guards against duplicate final data events.
	finalDelivered bool

	// j is the stream's lifecycle journal (nil for un-journaled streams);
	// jGen is the journal generation observed at bind time — a mismatch
	// means the pool rebound the journal to a newer stream and writes must
	// stop. jFirst marks the first-payload event as emitted; jOldWins and
	// jNewWins remember the assembler's overlap totals at the last overlap
	// check so only transitions emit events.
	j        *streamscope.Journal
	jGen     uint64
	jFirst   bool
	jOldWins uint64
	jNewWins uint64
}

// chunkState is one in-progress chunk of reassembled stream data. Its bytes
// live in one arena block (blk): buf is a length-limited view of the block's
// storage, so filling the chunk is a copy into preallocated memory, never a
// heap allocation. A nil buf with blk == NoBlock marks "no chunk yet" — the
// state after delivery, and after a failed block grab under arena
// exhaustion (the next packet retries the allocation).
type chunkState struct {
	buf        []byte     // fill = len(buf); a view into blk's storage
	blk        mem.Handle // the arena block backing buf
	size       int        // the chunk's byte bound (stream chunk size, capped by the block)
	overlapLen int        // prefix carried from the previous chunk (not re-accounted)
	extraAcct  int        // accounted bytes adopted back via KeepChunk
	holeBefore bool
	firstTS    int64 // timestamp of the first byte (flush timeout anchor)
	pkts       []event.PacketRecord
}

// fill returns the number of bytes in the chunk.
func (c *chunkState) fill() int { return len(c.buf) }

// accounted returns how many of the chunk's bytes are charged to the
// memory budget.
func (c *chunkState) accounted() int { return len(c.buf) - c.overlapLen + c.extraAcct }

// room returns how many bytes the chunk may still take.
func (c *chunkState) room() int { return c.size - len(c.buf) }

// ext returns the engine extension of s. Every tracked stream has one: the
// create path attaches it (newExt) before anything else looks.
func ext(s *flowtab.Stream) *streamExt { return s.Chunk.(*streamExt) }

// stateSlab is how many extensions or assemblers an empty free list is
// refilled with in one allocation, so even a cold engine — every stream new,
// none retired yet — pays one heap object per 64 streams, not two per stream.
const stateSlab = 64

// refill stocks an empty free list with one slab of zero values.
func refill[T any](free []*T) []*T {
	slab := make([]T, stateSlab)
	for i := range slab {
		free = append(free, &slab[i])
	}
	return free
}

// newExt attaches a zeroed extension to a just-created stream: the one a
// retired stream parked last, or one of a fresh slab.
func (e *Engine) newExt(s *flowtab.Stream) *streamExt {
	if len(e.freeExt) == 0 {
		e.freeExt = refill(e.freeExt)
	}
	n := len(e.freeExt) - 1
	x := e.freeExt[n]
	e.freeExt = e.freeExt[:n]
	s.Chunk = x
	return x
}

// newAsm returns an assembler in its initial state for cfg, recycled the
// same way; Reset wipes whatever its previous stream left.
func (e *Engine) newAsm(cfg reassembly.Config) *reassembly.Assembler {
	if len(e.freeAsm) == 0 {
		e.freeAsm = refill(e.freeAsm)
	}
	n := len(e.freeAsm) - 1
	a := e.freeAsm[n]
	e.freeAsm = e.freeAsm[:n]
	a.Reset(cfg)
	return a
}

// newChunkBuf starts a chunk in a fresh arena block, bounded by the
// stream's chunk size (capped by the block's capacity), seeding it with the
// overlap tail of the previous chunk when configured. When the arena has no
// free block — stream concurrency times block size exceeding the physical
// pool — the chunk falls back to a transient heap buffer: the byte
// accounting (PPL watermarks) stays the authoritative admission bound, the
// arena is the zero-alloc fast path for it.
//
//scap:hotpath
func (e *Engine) newChunkBuf(s *flowtab.Stream, x *streamExt, prev []byte, ts int64) chunkState {
	size := s.ChunkSize
	if size <= 0 {
		size = e.cfg.ChunkSize
	}
	h, store := e.mm.AllocBlock(e.coreID)
	if h == mem.NoBlock {
		store = e.heapChunkStore(size)
		e.janomaly(s, x, streamscope.AnomArenaFallback, streamscope.EvArenaFallback, int64(size), 0)
	} else if size > len(store) {
		size = len(store)
	}
	c := chunkState{firstTS: ts, size: size, blk: h}
	overlap := s.OverlapSize
	if overlap > len(prev) {
		overlap = len(prev)
	}
	if overlap >= size {
		overlap = size - 1
	}
	if overlap > 0 {
		c.buf = store[:overlap]
		copy(c.buf, prev[len(prev)-overlap:])
		c.overlapLen = overlap
	} else {
		c.buf = store[:0]
	}
	if e.cfg.NeedPkts && h != mem.NoBlock {
		// Reuse the record slab that recycles with the block (see
		// growPktRecords); first use of a block starts with none. Heap
		// chunks grow their own slab lazily in growPktRecords.
		if recs, ok := e.mm.BlockAttachment(h).([]event.PacketRecord); ok {
			c.pkts = recs[:0]
		}
	}
	return c
}

// heapChunkStore allocates the arena-exhaustion fallback buffer. Cold by
// construction: it runs only when every block is pinned by a concurrent
// stream, and the counter makes that visible so the operator can raise
// MemorySize (or shrink chunks) instead.
func (e *Engine) heapChunkStore(size int) []byte {
	e.c.arenaExhausted.Add(1)
	e.m.flight.Note(e.coreID, metrics.FlightArenaFallback, int64(size), 0)
	return make([]byte, size)
}
