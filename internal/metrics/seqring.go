package metrics

import "sync/atomic"

// SeqRing is the repo's one fixed-record telemetry ring: the storage under
// the flight recorder's per-core rings and streamscope's per-stream journals.
// Each slot is a seqlock in miniature. The writer claims a ring sequence
// number, zeroes the slot's seq, stores the record fields, then publishes the
// sequence; a reader accepts a slot only when seq reads the same nonzero value
// before and after copying the fields, so a record torn by a writer lapping
// the ring is detected and skipped rather than misreported. Put is a claim
// plus six atomic stores: no locks, no allocation, no formatting.
//
// The ring does not own its slots: Init points it at caller-provided storage,
// so a journal can keep its slots inline while a flight ring takes a heap
// slice. A SeqRing must not be copied after Init.
//
//scap:atomics
type SeqRing struct {
	next  atomic.Uint64 // records ever claimed
	slots []SeqSlot     // power-of-two length; set once by Init, before sharing
}

// SeqSlot is one record's storage. Every field is atomic so concurrent
// writer/reader access is race-free; seq doubles as the publication flag.
//
//scap:atomics
type SeqSlot struct {
	seq  atomic.Uint64 // ring sequence (1-based); 0 = empty or being written
	ts   atomic.Int64
	kind atomic.Uint64
	a    atomic.Int64
	b    atomic.Int64
}

// SeqRecord is one decoded ring record.
type SeqRecord struct {
	Seq  uint64
	TS   int64
	Kind uint64
	A, B int64
}

// Init binds the ring to its slot storage; len(slots) must be a power of two.
func (r *SeqRing) Init(slots []SeqSlot) { r.slots = slots }

// Put records one record, overwriting the oldest slot when the ring is full.
//
//scap:hotpath
func (r *SeqRing) Put(ts int64, kind uint64, a, b int64) {
	n := r.next.Add(1) // 1-based sequence; slot index is (n-1) & mask
	s := &r.slots[(n-1)&uint64(len(r.slots)-1)]
	s.seq.Store(0)
	s.ts.Store(ts)
	s.kind.Store(kind)
	s.a.Store(a)
	s.b.Store(b)
	s.seq.Store(n)
}

// Claimed returns how many records were ever written (including records
// since overwritten).
func (r *SeqRing) Claimed() uint64 { return r.next.Load() }

// Reset empties the ring for reuse. Only the ring's writer may call it.
func (r *SeqRing) Reset() {
	r.next.Store(0)
	for i := range r.slots {
		r.slots[i].seq.Store(0)
	}
}

// Read calls fn for every readable record, in slot order. A couple of retries
// ride out a writer mid-store; a slot being lapped repeatedly is dropped.
func (r *SeqRing) Read(fn func(SeqRecord)) {
	for i := range r.slots {
		s := &r.slots[i]
		for attempt := 0; attempt < 3; attempt++ {
			n := s.seq.Load()
			if n == 0 {
				break
			}
			rec := SeqRecord{Seq: n, TS: s.ts.Load(), Kind: s.kind.Load(), A: s.a.Load(), B: s.b.Load()}
			if s.seq.Load() == n {
				fn(rec)
				break
			}
		}
	}
}
