package reassembly

// Flags records reassembly anomalies for a stream direction. Scap surfaces
// these through the stream descriptor's error field so applications can
// tell pristine chunks from best-effort ones (paper §2.3, §3.2).
type Flags uint8

const (
	// FlagHole is set when fast mode wrote through a sequence hole.
	FlagHole Flags = 1 << iota
	// FlagBufferOverflow is set when the out-of-order buffer budget was
	// exceeded and segments had to be dropped (strict) or a hole skipped
	// (fast).
	FlagBufferOverflow
	// FlagStrictDrop is set when strict mode discarded undeliverable
	// buffered data at flush time.
	FlagStrictDrop
	// FlagBadHandshake is set by the engine when data arrives on a TCP
	// stream whose three-way handshake was never observed.
	FlagBadHandshake
	// FlagBadSeq is set when a segment was unreasonably far from the
	// expected sequence window.
	FlagBadSeq
)

// Stats counts assembler activity for one stream direction.
type Stats struct {
	DeliveredBytes  uint64
	DuplicateBytes  uint64 // bytes at or below the delivery point, re-seen
	OverlapOldWins  uint64 // overlapped bytes resolved in favor of old data
	OverlapNewWins  uint64 // overlapped bytes resolved in favor of new data
	OutOfOrderSegs  uint64 // segments that had to be buffered
	HolesSkipped    uint64 // fast-mode write-throughs
	DroppedSegments uint64 // strict-mode buffer-overflow drops
}

// Config parametrizes an Assembler.
type Config struct {
	Mode   Mode
	Policy Policy
	// MaxBufferedBytes / MaxBufferedSegments bound the out-of-order
	// buffer. Zero selects the defaults (256 KiB / 128 segments).
	MaxBufferedBytes    int
	MaxBufferedSegments int
}

// Default out-of-order buffer budget.
const (
	DefaultMaxBufferedBytes    = 256 << 10
	DefaultMaxBufferedSegments = 128
)

// Emit receives reassembled in-order byte runs. holeBefore reports that the
// bytes follow a skipped sequence hole (fast mode only). The slice is valid
// only for the duration of the call.
type Emit func(data []byte, holeBefore bool)

// seg is one buffered out-of-order run in unwrapped sequence space.
// Invariant: the buffer is sorted by start and strictly non-overlapping,
// and every segment begins after the delivery point.
type seg struct {
	start int64
	data  []byte
}

func (s seg) end() int64 { return s.start + int64(len(s.data)) }

// Assembler reassembles one direction of one TCP connection. It is not
// safe for concurrent use; in Scap each stream belongs to exactly one core.
type Assembler struct {
	cfg   Config
	next  int64 // unwrapped seq of the next byte to deliver; -1 = uninitialized
	segs  []seg
	bufn  int // buffered bytes
	flags Flags
	stats Stats
}

// withDefaults fills in the out-of-order buffer budget.
func (cfg Config) withDefaults() Config {
	if cfg.MaxBufferedBytes <= 0 {
		cfg.MaxBufferedBytes = DefaultMaxBufferedBytes
	}
	if cfg.MaxBufferedSegments <= 0 {
		cfg.MaxBufferedSegments = DefaultMaxBufferedSegments
	}
	return cfg
}

// New creates an assembler.
func New(cfg Config) *Assembler {
	return &Assembler{cfg: cfg.withDefaults(), next: -1}
}

// Reset returns the assembler — a used one, or the zero value — to the
// state New(cfg) creates, so an owner can recycle it for another stream
// direction. Nothing carries over: the delivery point, flags, counters and
// any still-buffered segments (whose byte storage is dropped) all go; only
// the segment slice's capacity stays.
func (a *Assembler) Reset(cfg Config) {
	// Spare capacity can still name segments a budget drop truncated away.
	clear(a.segs[:cap(a.segs)])
	*a = Assembler{cfg: cfg.withDefaults(), next: -1, segs: a.segs[:0]}
}

// Init anchors the stream at a SYN with the given initial sequence number:
// the first data byte is isn+1.
func (a *Assembler) Init(isn uint32) {
	if a.next < 0 {
		a.next = int64(isn) + 1
	}
}

// Initialized reports whether the delivery point has been anchored.
func (a *Assembler) Initialized() bool { return a.next >= 0 }

// Flags returns the accumulated anomaly flags.
func (a *Assembler) Flags() Flags { return a.flags }

// Stats returns a snapshot of the counters.
func (a *Assembler) Stats() Stats { return a.stats }

// Overlaps returns the running overlapped-byte totals (old-data-wins,
// new-data-wins). Two loads — cheap enough for a per-segment transition
// check on the hot path, unlike copying the whole Stats value.
//
//scap:hotpath
func (a *Assembler) Overlaps() (oldWins, newWins uint64) {
	return a.stats.OverlapOldWins, a.stats.OverlapNewWins
}

// PendingBytes returns the currently buffered out-of-order byte count.
func (a *Assembler) PendingBytes() int { return a.bufn }

// NextSeq returns the 32-bit sequence number of the next byte to deliver.
func (a *Assembler) NextSeq() uint32 { return uint32(a.next) }

// unwrap maps a 32-bit sequence number to the unwrapped 64-bit value
// closest to the delivery point, handling sequence wraparound.
func (a *Assembler) unwrap(seq uint32) int64 {
	return a.next + int64(int32(seq-uint32(a.next)))
}

// Segment processes one TCP segment's payload. Any data that becomes
// deliverable is passed to emit in order. Zero-length segments are ignored.
// The in-order fast path is allocation-free; buffering an out-of-order run
// copies it in insert, which is deliberately off the hot path.
//
//scap:hotpath
func (a *Assembler) Segment(seq uint32, data []byte, emit Emit) {
	if len(data) == 0 {
		return
	}
	if a.next < 0 {
		// No SYN seen (mid-stream capture): anchor at this segment.
		a.next = int64(seq)
	}
	start := a.unwrap(seq)
	end := start + int64(len(data))

	// Trim the already-delivered prefix: delivered bytes are immutable,
	// every policy keeps them.
	if end <= a.next {
		a.stats.DuplicateBytes += uint64(len(data))
		return
	}
	if start < a.next {
		a.stats.DuplicateBytes += uint64(a.next - start)
		data = data[a.next-start:]
		start = a.next
	}

	// Fast path: in-order segment with an empty buffer delivers without
	// copying — the common case that makes kernel reassembly cheap.
	if start == a.next && len(a.segs) == 0 {
		a.stats.DeliveredBytes += uint64(len(data))
		a.next = end
		emit(data, false)
		return
	}

	if start > a.next {
		a.stats.OutOfOrderSegs++
	}
	a.insert(start, data)
	a.drain(emit, false)
	a.enforceBudget(emit)
}

// insert integrates [start, start+len(data)) into the buffer, resolving
// overlaps against existing segments with the configured policy. The new
// bytes are copied; buffered segments own their storage.
func (a *Assembler) insert(start int64, data []byte) {
	end := start + int64(len(data))
	// pieces tracks the sub-ranges of the new segment that survive
	// old-wins overlaps.
	type piece struct{ s, e int64 }
	pieces := []piece{{start, end}}
	// kept must not alias a.segs: an old-splits-into-two case would
	// otherwise overwrite segments not yet visited.
	kept := make([]seg, 0, len(a.segs)+2)
	for _, old := range a.segs {
		if old.end() <= start || old.start >= end {
			kept = append(kept, old)
			continue
		}
		// Overlap. Policy decides the overlapped byte range.
		if a.cfg.Policy.newWins(start, end, old.start, old.end()) {
			lo := max64(start, old.start)
			hi := min64(end, old.end())
			a.stats.OverlapNewWins += uint64(hi - lo)
			// Keep the old parts outside the new range.
			if old.start < start {
				left := seg{start: old.start, data: old.data[:start-old.start]}
				kept = append(kept, left)
			}
			if old.end() > end {
				right := seg{start: end, data: old.data[end-old.start:]}
				kept = append(kept, right)
			}
			a.bufn -= int(hi - lo)
		} else {
			lo := max64(start, old.start)
			hi := min64(end, old.end())
			a.stats.OverlapOldWins += uint64(hi - lo)
			kept = append(kept, old)
			// Subtract [old.start, old.end) from every pending new piece.
			var next []piece
			for _, p := range pieces {
				if p.e <= old.start || p.s >= old.end() {
					next = append(next, p)
					continue
				}
				if p.s < old.start {
					next = append(next, piece{p.s, old.start})
				}
				if p.e > old.end() {
					next = append(next, piece{old.end(), p.e})
				}
			}
			pieces = next
		}
	}
	a.segs = kept
	for _, p := range pieces {
		if p.e <= p.s {
			continue
		}
		cp := make([]byte, p.e-p.s)
		copy(cp, data[p.s-start:p.e-start])
		a.segs = append(a.segs, seg{start: p.s, data: cp})
		a.bufn += len(cp)
	}
	a.sortSegs()
}

// sortSegs restores start ordering (insertion sort: the buffer is small and
// nearly sorted).
func (a *Assembler) sortSegs() {
	for i := 1; i < len(a.segs); i++ {
		for j := i; j > 0 && a.segs[j].start < a.segs[j-1].start; j-- {
			a.segs[j], a.segs[j-1] = a.segs[j-1], a.segs[j]
		}
	}
}

// drain delivers every buffered segment that is now contiguous with the
// delivery point. holeBefore marks the first emission (used after a skip).
func (a *Assembler) drain(emit Emit, holeBefore bool) {
	for len(a.segs) > 0 && a.segs[0].start <= a.next {
		s := a.segs[0]
		a.segs = a.segs[1:]
		data := s.data
		if s.start < a.next { // partially delivered by a racing overlap
			if s.end() <= a.next {
				a.bufn -= len(data)
				continue
			}
			data = data[a.next-s.start:]
		}
		a.bufn -= len(s.data)
		a.stats.DeliveredBytes += uint64(len(data))
		a.next = s.start + int64(len(s.data))
		emit(data, holeBefore)
		holeBefore = false
	}
}

// enforceBudget applies the buffer limits after an insert.
func (a *Assembler) enforceBudget(emit Emit) {
	over := func() bool {
		return a.bufn > a.cfg.MaxBufferedBytes || len(a.segs) > a.cfg.MaxBufferedSegments
	}
	if !over() {
		return
	}
	a.flags |= FlagBufferOverflow
	if a.cfg.Mode == ModeFast {
		// Skip the hole: jump the delivery point to the first buffered
		// byte and write through, flagging the chunk.
		for over() && len(a.segs) > 0 {
			a.stats.HolesSkipped++
			a.flags |= FlagHole
			a.next = a.segs[0].start
			a.drain(emit, true)
		}
		return
	}
	// Strict mode never skips: shed the highest (farthest) segments.
	for over() && len(a.segs) > 0 {
		last := a.segs[len(a.segs)-1]
		a.segs = a.segs[:len(a.segs)-1]
		a.bufn -= len(last.data)
		a.stats.DroppedSegments++
	}
}

// Flush ends the stream direction (FIN, RST, or inactivity timeout). Fast
// mode delivers everything still buffered, marking holes; strict mode
// discards it with FlagStrictDrop, since delivering around a hole would
// violate its guarantees.
func (a *Assembler) Flush(emit Emit) {
	if len(a.segs) == 0 {
		return
	}
	if a.cfg.Mode == ModeStrict {
		for _, s := range a.segs {
			a.stats.DroppedSegments++
			a.bufn -= len(s.data)
		}
		a.segs = nil
		a.flags |= FlagStrictDrop
		return
	}
	for len(a.segs) > 0 {
		a.flags |= FlagHole
		a.stats.HolesSkipped++
		a.next = a.segs[0].start
		a.drain(emit, true)
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
