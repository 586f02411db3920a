package core

import (
	"sync"

	"scap/internal/flowtab"
	"scap/internal/mem"
)

// CtrlOp is a runtime control operation a worker thread sends back to the
// engine that owns the stream. The paper passes these through the Scap
// socket (setsockopt); here a small per-core queue drained at the top of
// the packet path plays that role, preserving the single-writer discipline
// on stream records.
type CtrlOp uint8

const (
	// OpSetCutoff changes a stream's cutoff (scap_set_stream_cutoff).
	OpSetCutoff CtrlOp = iota
	// OpSetPriority changes a connection's PPL priority (both directions).
	OpSetPriority
	// OpDiscard stops all data collection for a stream
	// (scap_discard_stream).
	OpDiscard
	// OpKeepChunk gives a delivered chunk back to the engine so the next
	// delivery contains the previous and new data merged
	// (scap_keep_stream_chunk).
	OpKeepChunk
	// OpSetParam updates one per-stream parameter
	// (scap_set_stream_parameter).
	OpSetParam
	// OpSetDynCutoff sets the engine-wide dynamic cutoff clamp (Stream is
	// nil: the message targets the engine, not a record). Value >= 0 caps
	// every stream's effective cutoff at Value bytes; Value < 0 removes the
	// clamp. The adaptive control plane is the intended sender.
	OpSetDynCutoff
	// OpSetSketchFDIRBudget bounds how many sketch-nominated heavy flows may
	// hold NIC drop-filter pairs at once (Stream is nil). Value < 0 means
	// unlimited (the historical behavior); 0 stops new nominations while
	// installed filters age out on their own deadlines.
	OpSetSketchFDIRBudget
)

// StreamParam identifies per-stream parameters for OpSetParam.
type StreamParam uint8

const (
	ParamChunkSize StreamParam = iota
	ParamOverlapSize
	ParamFlushTimeout
	ParamInactivityTimeout
)

// Ctrl is one control message. Stream identity is validated against ID, so
// a message racing with stream termination is dropped instead of mutating a
// recycled record.
type Ctrl struct {
	Op     CtrlOp
	Stream *flowtab.Stream
	ID     uint64
	Param  StreamParam
	Value  int64
	// Data/Block/Accounted carry the kept chunk for OpKeepChunk. Block is
	// the chunk's arena block when the keeper got one from a data event —
	// ownership transfers back to the engine with the message. A handle-less
	// keep (NoBlock) carries foreign bytes in Data, which the engine copies
	// into a fresh block.
	Data      []byte
	Block     mem.Handle
	Accounted int
}

// ctrlQueue is a mutex-guarded MPSC queue (several worker threads may
// target the same engine; only the engine drains).
//
//scap:shared
type ctrlQueue struct {
	mu sync.Mutex
	// msgs is guarded by mu.
	msgs []Ctrl
}

func (q *ctrlQueue) push(c Ctrl) {
	q.mu.Lock()
	q.msgs = append(q.msgs, c)
	q.mu.Unlock()
}

// drain swaps out the pending messages; the caller processes them outside
// the lock. Only the owning engine drains.
//
//scap:onlyrole engine
func (q *ctrlQueue) drain(buf []Ctrl) []Ctrl {
	//scaplint:ignore hotpathblock audited: taken once per frame batch, not per packet, and contended only while a worker posts a control message; the critical section is a slice swap
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.msgs) == 0 {
		return buf[:0]
	}
	buf = append(buf[:0], q.msgs...)
	q.msgs = q.msgs[:0]
	return buf
}

// Control enqueues a control message for this engine.
//
//scap:anyrole the control queue is mutex-guarded MPSC
func (e *Engine) Control(c Ctrl) { e.ctrl.push(c) }

// applyCtrl executes one validated control message.
func (e *Engine) applyCtrl(c Ctrl) {
	// Global ops target the engine itself, not a stream record.
	switch c.Op {
	case OpSetDynCutoff:
		v := c.Value
		if v < 0 {
			v = -1
		}
		e.dynCutoff = v
		return
	case OpSetSketchFDIRBudget:
		v := int(c.Value)
		if v < 0 {
			v = -1
		}
		e.sketchFDIRBudget = v
		return
	}
	s := c.Stream
	if s == nil || s.ID != c.ID || !s.InTable() {
		// Stream terminated before the message arrived: the kept chunk's
		// charge and block die with it.
		if c.Op == OpKeepChunk {
			if c.Accounted > 0 {
				e.mm.Release(c.Accounted)
			}
			if c.Block != mem.NoBlock {
				e.mm.FreeBlock(e.coreID, c.Block)
			}
		}
		return
	}
	x := ext(s)
	switch c.Op {
	case OpSetCutoff:
		s.Cutoff = c.Value
		if s.Cutoff >= 0 && int64(s.Stats.CapturedBytes) >= s.Cutoff && s.Status == flowtab.StatusActive {
			e.reachCutoff(s, x)
		}
	case OpSetPriority:
		s.Priority = int(c.Value)
		if s.Opposite != nil {
			s.Opposite.Priority = int(c.Value)
		}
	case OpDiscard:
		x.discard = true
		e.dropChunk(s, x)
		e.installFDIR(s, x)
	case OpKeepChunk:
		e.adoptKeptChunk(s, x, c.Data, c.Block, c.Accounted)
	case OpSetParam:
		switch c.Param {
		case ParamChunkSize:
			if c.Value > 0 {
				s.ChunkSize = int(c.Value)
			}
		case ParamOverlapSize:
			if c.Value >= 0 && int(c.Value) < s.ChunkSize {
				s.OverlapSize = int(c.Value)
			}
		case ParamFlushTimeout:
			s.FlushTimeout = c.Value
			// The flush scan only visits enrolled streams; enabling a
			// timeout after data buffered must enroll retroactively, and
			// disabling one drops the stream from the scan.
			if c.Value > 0 {
				e.markDirty(s, x)
			} else {
				delete(e.dirty, s)
			}
		case ParamInactivityTimeout:
			if c.Value > 0 {
				s.InactivityTimeout = c.Value
			}
		}
	}
}

// adoptKeptChunk merges a chunk the application kept back into the
// stream's current chunk so the next delivery includes both. The kept block
// is retained as the merged chunk's storage — no fresh buffer is allocated:
// the successor chunk's new bytes are appended into the kept block's
// remaining room, spilling through adoptBytes into a second block only when
// the kept block overflows.
func (e *Engine) adoptKeptChunk(s *flowtab.Stream, x *streamExt, data []byte, blk mem.Handle, accounted int) {
	cur := x.chunk
	// The successor chunk was seeded with the kept chunk's overlap tail;
	// drop that prefix to avoid duplicating bytes in the merge.
	var curNew []byte
	if cur.buf != nil {
		curNew = cur.buf[cur.overlapLen:]
	}
	chunkSize := s.ChunkSize
	if chunkSize <= 0 {
		chunkSize = e.cfg.ChunkSize
	}
	var store []byte
	if blk == mem.NoBlock {
		// Handle-less keep (foreign bytes, or a chunk that was itself built
		// on the heap fallback): copy into a fresh block, or — when the
		// arena is exhausted or the bytes exceed a block — into a heap
		// buffer with merge room, mirroring newChunkBuf's fallback.
		var nb mem.Handle
		var bs []byte
		nb, bs = e.mm.AllocBlock(e.coreID)
		if nb != mem.NoBlock && len(data) <= len(bs) {
			blk, store = nb, bs
		} else {
			if nb != mem.NoBlock {
				e.mm.FreeBlock(e.coreID, nb)
			} else {
				e.c.arenaExhausted.Add(1)
			}
			store = make([]byte, len(data)+chunkSize)
		}
		n := copy(store, data)
		data = store[:n]
	} else {
		store = e.mm.BlockBytes(blk)
	}
	fill := len(data) // data == store[:fill]
	take := len(curNew)
	if take > len(store)-fill {
		take = len(store) - fill
	}
	buf := store[:fill+take]
	copy(buf[fill:], curNew[:take])
	rest := curNew[take:]
	size := fill + chunkSize
	if size > len(store) {
		size = len(store)
	}
	if size < len(buf) {
		size = len(buf)
	}
	// The merged chunk keeps the successor's record slab (cur.pkts), which
	// recycles with cur's block; swap the two blocks' attachments so each
	// slab stays parked on the block whose chunk owns it. When the merge
	// landed on the heap, detach the slab instead so cur's recycled block
	// doesn't hand the same storage to a future chunk.
	if cur.blk != mem.NoBlock && cur.blk != blk {
		if blk != mem.NoBlock {
			ka := e.mm.BlockAttachment(blk)
			e.mm.SetBlockAttachment(blk, e.mm.BlockAttachment(cur.blk))
			e.mm.SetBlockAttachment(cur.blk, ka)
		} else {
			e.mm.SetBlockAttachment(cur.blk, nil)
		}
	}
	// Rebase accounting so accounted() equals the kept chunk's charge plus
	// whatever the successor chunk had charged for the bytes now in buf:
	//   accounted() = len(buf) + extraAcct'
	//               = fill + take + extraAcct'
	//   want        = accounted + take + cur.extraAcct
	// hence extraAcct' = accounted + cur.extraAcct - fill. The spilled rest
	// carries its own charge into the successor below (adoptBytes stores
	// without re-reserving, and accounted() counts stored bytes).
	x.chunk = chunkState{
		buf:        buf,
		blk:        blk,
		size:       size,
		overlapLen: 0,
		extraAcct:  accounted + cur.extraAcct - fill,
		holeBefore: cur.holeBefore,
		firstTS:    cur.firstTS,
		pkts:       cur.pkts,
	}
	if x.chunk.firstTS == 0 {
		x.chunk.firstTS = e.now
	}
	e.markDirty(s, x)
	if len(rest) > 0 {
		// The kept block is full: deliver it now and spill the remainder
		// into a fresh successor. rest still aliases cur's block, so the
		// copy happens before that block is freed.
		e.deliverChunk(s, x, false)
		e.adoptBytes(s, x, rest)
	}
	if cur.blk != mem.NoBlock && cur.blk != blk {
		e.mm.FreeBlock(e.coreID, cur.blk)
	}
}

// adoptBytes stores already-reserved bytes into the stream's current chunk:
// appendData without the cutoff checks and without re-charging — the bytes
// were charged when first captured, and accounted() counts them by their
// presence in the buffer.
func (e *Engine) adoptBytes(s *flowtab.Stream, x *streamExt, b []byte) {
	for len(b) > 0 {
		if x.chunk.buf == nil {
			x.chunk = e.newChunkBuf(s, x, nil, e.now)
			e.markDirty(s, x)
		}
		c := &x.chunk
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
		n := len(c.buf)
		c.buf = c.buf[:n+take]
		copy(c.buf[n:], b[:take])
		b = b[take:]
		e.markDirty(s, x)
	}
}
