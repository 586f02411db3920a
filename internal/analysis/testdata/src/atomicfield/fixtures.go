// Package atomicfield exercises the atomic-discipline analyzer: fields
// accessed through sync/atomic functions must never be accessed plainly,
// 64-bit atomics must be 8-byte aligned under 32-bit layout, and
// //scap:atomics structs must stay all-atomic.
package atomicfield

import "sync/atomic"

// engine reproduces the pre-PR-1 Engine.Stats data race: the packet path
// increments counters plainly while Stats reads them with sync/atomic.
type engine struct {
	frames uint64 // offset 0: aligned, but mixed plain/atomic access
	drops  uint64
	pad    uint32
	seq    uint64 // want atomicfield "not 8-byte aligned on 32-bit platforms"
}

func (e *engine) handle() {
	e.frames++ // want atomicfield "plain write to field frames"
	atomic.AddUint64(&e.drops, 1)
	atomic.AddUint64(&e.seq, 1)
}

func (e *engine) stats() (uint64, uint64) {
	return atomic.LoadUint64(&e.frames), e.drops // want atomicfield "plain read of field drops"
}

func leak(e *engine) *uint64 {
	return &e.drops // want atomicfield "address of field drops"
}

// counter is only ever accessed plainly: no atomic use, no findings.
type counter struct{ n uint64 }

func (c *counter) bump() { c.n++ }

func (c *counter) value() uint64 { return c.n }

// slot mirrors the flight recorder's all-atomic seqlock slot.
//
//scap:atomics
type slot struct {
	seq atomic.Uint64
	ts  atomic.Int64
	_   [40]byte
	n   int // want atomicfield "non-atomic type int"
}

// ringSet mirrors flightRing: padding, a typed atomic cursor, and a slice
// of all-atomic slots are all allowed.
//
//scap:atomics
type ringSet struct {
	_     [64]byte
	next  atomic.Uint64
	slots []slot
}

// slotRing mirrors event.Queue's slot protocol: tail is the published
// cursor, stored and loaded with sync/atomic because it carries the
// happens-before edge to the consumer; resv is the producer's private
// reserve cursor running ahead of it and is plain by design.
type slotRing struct {
	tail uint64
	head uint64
	resv uint64
	buf  []int
}

func (r *slotRing) reserve() *int {
	p := &r.buf[r.resv%uint64(len(r.buf))] // fine: resv is never atomic
	r.resv++
	return p
}

func (r *slotRing) commit() { atomic.StoreUint64(&r.tail, r.resv) }

func (r *slotRing) view() []int {
	h := atomic.LoadUint64(&r.head)
	return r.buf[h%uint64(len(r.buf)) : atomic.LoadUint64(&r.tail)%uint64(len(r.buf))]
}

func (r *slotRing) release(n int) {
	atomic.StoreUint64(&r.head, r.head+uint64(n)) // want atomicfield "plain read of field head"
}

// commitRacy publishes without the atomic store: the consumer may see the
// cursor before the slots it covers.
func (r *slotRing) commitRacy() {
	r.tail = r.resv // want atomicfield "plain write to field tail"
}
