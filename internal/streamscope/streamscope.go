// Package streamscope keeps sampled per-stream lifecycle journals: a small,
// fixed pool of alloc-free event rings, one per journaled stream, recording
// the stream's life (created → first payload → chunk flushes with latencies →
// gaps/overlaps → cutoff/expiry cause) on the same metrics.SeqRing the flight
// recorder uses.
//
// Two populations land in the pool:
//
//   - Sampled streams: every Nth new stream, chosen by the top bits of the
//     flow hash the engine already computed (so the choice is deterministic
//     per 5-tuple and free on the hot path). The rate adapts under PPL
//     pressure — Adapt doubles the sampling stride while the arena is above
//     the watermark and halves it back afterwards — following Braun et al.'s
//     load-adaptive flow sampling.
//   - Anomalous streams: a stream that hits a cutoff clamp, arena-exhausted
//     fallback, reassembly gap/overlap, PPL payload drop, or FDIR install is
//     promoted into the pool at the moment of the anomaly regardless of the
//     sampling decision, so the interesting tail is never sampled away.
//
// The writer side is engine-only: a journal belongs to the engine goroutine
// that owns its stream (streams never migrate cores), so there is exactly one
// writer per journal and the write path is one SeqRing.Put — no locks, no
// allocation. Readers (/debug/streams) reconstruct
// journals best-effort under the generation/sequence protocol and lose at
// most records that were being overwritten while read.
package streamscope

import (
	"net/netip"
	"sync/atomic"

	"scap/internal/metrics"
	"scap/internal/pkt"
)

// EventKind discriminates journal events.
type EventKind uint8

// Journal event kinds, in rough lifecycle order.
const (
	EvCreated       EventKind = iota // stream created; A = priority, B = cutoff bytes
	EvFirstPayload                   // first payload byte admitted; A = payload len
	EvChunkFlush                     // chunk delivered; A = chunk bytes, B = chunk age (ns)
	EvGap                            // reassembly hole: chunk flushed around missing data; A = chunk bytes
	EvOverlap                        // overlapping segment resolved; A = old-wins total, B = new-wins total
	EvPPLDrop                        // payload dropped by the priority ladder; A = payload len, B = priority
	EvCutoff                         // cutoff clamp hit; A = captured bytes, B = stream bytes
	EvArenaFallback                  // arena exhausted, chunk fell back to heap; A = requested bytes
	EvFDIRInstall                    // hardware drop filter installed; A = filter ID
	EvClose                          // stream closed/expired; A = close status, B = captured bytes
)

var eventKindNames = [...]string{
	EvCreated:       "created",
	EvFirstPayload:  "first_payload",
	EvChunkFlush:    "chunk_flush",
	EvGap:           "gap",
	EvOverlap:       "overlap",
	EvPPLDrop:       "ppl_drop",
	EvCutoff:        "cutoff",
	EvArenaFallback: "arena_fallback",
	EvFDIRInstall:   "fdir_install",
	EvClose:         "close",
}

// String returns the kind's wire name.
func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return "unknown"
}

// Anomaly bits. A journal's anom word records which anomaly classes the
// stream hit; any nonzero value marks the journal as anomalous (pinned into
// top-offender views and counted by the anomaly gauge).
const (
	AnomCutoff        = 1 << iota // cutoff clamp fired
	AnomArenaFallback             // chunk allocation fell back to the heap
	AnomGap                       // reassembly hole flushed around
	AnomOverlap                   // overlapping segment resolved
	AnomPPLDrop                   // payload dropped under PPL pressure
	AnomFDIR                      // hardware drop filter installed
)

var anomalyNames = []string{"cutoff", "arena_fallback", "gap", "overlap", "ppl_drop", "fdir_install"}

// AnomalyNames expands an anomaly bitmask into wire names.
func AnomalyNames(mask uint64) []string {
	var out []string
	for i, n := range anomalyNames {
		if mask&(1<<uint(i)) != 0 {
			out = append(out, n)
		}
	}
	return out
}

// slotsPerJournal is each journal's event capacity (power of two). A stream's
// early life (created, first payload) stays resident because slots 0..1 are
// written once; later events wrap within the remaining ring.
const slotsPerJournal = 32

// Journal is one stream's event ring plus its identity. Identity fields are
// guarded by gen (a journal-level seqlock): Acquire bumps gen to an odd value,
// rewrites identity, then publishes the next even value. The engine keeps the
// even gen it observed at bind time and drops writes if the journal was
// rebound to a newer stream meanwhile — exact, not best-effort, because the
// pool is per-core and rebinding happens on the same goroutine that writes.
//
//scap:atomics
type Journal struct {
	gen  atomic.Uint64 // even = stable, odd = identity rewrite in progress
	id   atomic.Uint64 // stream ID
	meta atomic.Uint64 // packed ports/proto/dir/v4/priority, see packMeta
	// Flow endpoints as the big-endian halves of the 16-byte addresses
	// (IPv4 mapped), split so every field stays a plain atomic word.
	srcHi, srcLo atomic.Uint64
	dstHi, dstLo atomic.Uint64
	created      atomic.Int64  // stream creation timestamp (virtual ns)
	anom         atomic.Uint64 // anomaly bitmask; nonzero pins the journal
	sampled      atomic.Uint64 // 1 = picked by the sampler, 0 = anomaly promotion
	ring         metrics.SeqRing
	// slots is ring's storage, inline so a pool is one allocation and Acquire
	// none; New binds it.
	slots [slotsPerJournal]metrics.SeqSlot
}

// Gen returns the journal's current identity generation (even when stable).
func (j *Journal) Gen() uint64 { return j.gen.Load() }

// Anomalous reports whether the journal's stream has hit any anomaly.
func (j *Journal) Anomalous() bool { return j.anom.Load() != 0 }

// Note records one event. Caller must be the journal's owning engine
// goroutine.
//
//scap:hotpath
func (j *Journal) Note(kind EventKind, ts int64, a, b int64) {
	j.ring.Put(ts, uint64(kind), a, b)
}

// NoteAnomaly sets an anomaly bit and records the matching event. The
// load-or-store is race-free because the owning engine is the only writer.
//
//scap:hotpath
func (j *Journal) NoteAnomaly(bit uint64, kind EventKind, ts int64, a, b int64) {
	if cur := j.anom.Load(); cur&bit == 0 {
		j.anom.Store(cur | bit)
	}
	j.Note(kind, ts, a, b)
}

// Binding is the stream identity Acquire stamps into a journal.
type Binding struct {
	ID       uint64
	Key      pkt.FlowKey
	Dir      uint8
	Priority int
	Created  int64 // virtual ns
	Sampled  bool  // false = anomaly promotion
}

// packMeta packs the non-address identity into one word:
// ports in the top 32 bits, then proto, then dir/v4 flag bits, then the
// priority in the low 16 (offset by 1 so negative/zero are distinguishable).
func packMeta(b Binding, v4 bool) uint64 {
	m := uint64(b.Key.SrcPort)<<48 | uint64(b.Key.DstPort)<<32 | uint64(b.Key.Proto)<<24
	if b.Dir != 0 {
		m |= 1 << 23
	}
	if v4 {
		m |= 1 << 22
	}
	p := b.Priority + 1
	if p < 0 {
		p = 0
	}
	if p > 0xffff {
		p = 0xffff
	}
	return m | uint64(p)
}

// pool is one core's journal ring. The cursor and counters sit alone on
// their cache line so claims never contend with neighbouring cores.
//
//scap:atomics
type pool struct {
	_         [64]byte
	cursor    atomic.Uint64 // journals ever acquired on this core
	sampled   atomic.Uint64 // acquired via the sampler
	anomalies atomic.Uint64 // journals promoted or flagged by an anomaly
	_         [64]byte
	journals  []Journal
}

// defaultJournalsPerCore is each core's pool size. At ~1.8 KiB a journal
// this is ~230 KiB per core — bounded and cheap enough to leave always on.
const defaultJournalsPerCore = 128

// Default sampling stride bounds: start at 1-in-64 new streams, back off to
// 1-in-4096 under sustained PPL pressure.
const (
	defaultBaseShift = 6
	defaultMaxShift  = 12
)

// Scope is the set of per-core journal pools plus the adaptive sampler.
// SampleNew/Acquire/Note*/Adapt are the engine-side paths; Snapshot/Dump are
// cold read paths for /debug/streams.
type Scope struct {
	pools     []pool
	mask      uint64        // journals-per-core - 1
	rateShift atomic.Uint32 // current stride: sample when top shift bits of hash are zero
	baseShift uint32
	maxShift  uint32
	now       *func() int64
}

// Options configures a Scope.
type Options struct {
	Cores           int
	JournalsPerCore int // power of two; 0 = default (128)
	SampleEvery     int // 1<<k stride floor; 0 = default (64), 1 = every stream
	Now             *func() int64
}

// New builds a Scope with one journal pool per core.
func New(o Options) *Scope {
	cores := o.Cores
	if cores < 1 {
		cores = 1
	}
	jpc := o.JournalsPerCore
	if jpc < 2 || jpc&(jpc-1) != 0 {
		jpc = defaultJournalsPerCore
	}
	base := uint32(defaultBaseShift)
	if o.SampleEvery > 0 {
		base = 0
		for 1<<base < o.SampleEvery && base < 63 {
			base++
		}
	}
	maxShift := uint32(defaultMaxShift)
	if maxShift < base {
		maxShift = base
	}
	now := o.Now
	if now == nil {
		var zero = func() int64 { return 0 }
		now = &zero
	}
	s := &Scope{
		pools:     make([]pool, cores),
		mask:      uint64(jpc - 1),
		baseShift: base,
		maxShift:  maxShift,
		now:       now,
	}
	for i := range s.pools {
		js := make([]Journal, jpc)
		for k := range js {
			js[k].ring.Init(js[k].slots[:])
		}
		s.pools[i].journals = js
	}
	s.rateShift.Store(base)
	return s
}

// SampleEvery returns the current sampling stride (1 = every new stream).
func (s *Scope) SampleEvery() uint64 { return 1 << uint(s.rateShift.Load()) }

// SampleNew decides whether a new stream with flow hash h is journal-sampled.
// The top bits of the (already mixed) hash are compared against the stride,
// so the decision is one load, one shift, one compare on the hot path.
//
//scap:hotpath
func (s *Scope) SampleNew(h uint64) bool {
	shift := s.rateShift.Load()
	if shift == 0 {
		return true
	}
	return h>>(64-shift) == 0
}

// Adapt moves the sampling stride one step toward its pressure target:
// doubling while under PPL pressure, halving back toward the configured base
// otherwise. Called from the engine's timer tick, so steps are paced by the
// timer cadence rather than packet arrival.
func (s *Scope) Adapt(underPressure bool) {
	for {
		cur := s.rateShift.Load()
		next := cur
		if underPressure && cur < s.maxShift {
			next = cur + 1
		} else if !underPressure && cur > s.baseShift {
			next = cur - 1
		}
		if next == cur || s.rateShift.CompareAndSwap(cur, next) {
			return
		}
	}
}

// Acquire binds the next journal slot on core's pool to a stream and returns
// the journal plus the even generation the engine must present on writes.
// The previous occupant's history is discarded (oldest-rebound-first), which
// keeps the pool bounded: anomalous journals are not immortal, merely pinned
// in read-side views while they survive.
//
// Not annotated //scap:hotpath: it runs once per *journaled* stream (1-in-N
// plus anomalies), but it is still alloc-free and lock-free by construction.
func (s *Scope) Acquire(core int, b Binding) (*Journal, uint64) {
	if core < 0 || core >= len(s.pools) {
		core = 0
	}
	p := &s.pools[core]
	n := p.cursor.Add(1)
	j := &p.journals[(n-1)&s.mask]

	j.gen.Add(1) // odd: identity rewrite in progress
	src, dst := b.Key.SrcIP.As16(), b.Key.DstIP.As16()
	j.id.Store(b.ID)
	j.meta.Store(packMeta(b, b.Key.SrcIP.Is4()))
	j.srcHi.Store(beUint64(src[:8]))
	j.srcLo.Store(beUint64(src[8:]))
	j.dstHi.Store(beUint64(dst[:8]))
	j.dstLo.Store(beUint64(dst[8:]))
	j.created.Store(b.Created)
	j.anom.Store(0)
	if b.Sampled {
		j.sampled.Store(1)
		p.sampled.Add(1)
	} else {
		j.sampled.Store(0)
	}
	j.ring.Reset()
	gen := j.gen.Add(1) // even: published
	return j, gen
}

// CountAnomaly bumps core's promoted/flagged-journal counter. The engine
// calls it on a journal's first anomaly (anom 0 → nonzero transition).
//
//scap:hotpath
func (s *Scope) CountAnomaly(core int) {
	if core < 0 || core >= len(s.pools) {
		core = 0
	}
	s.pools[core].anomalies.Add(1)
}

// beUint64 reads 8 bytes big-endian. Local so the hot-path packages don't
// grow an encoding/binary dependency in their call graph.
func beUint64(b []byte) uint64 {
	return uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
		uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7])
}

func putBeUint64(b []byte, v uint64) {
	for i := 7; i >= 0; i-- {
		b[i] = byte(v)
		v >>= 8
	}
}

// Sampled returns how many journals were acquired via the sampler, and
// Anomalies how many journals were promoted or flagged by an anomaly,
// across all cores (including journals since rebound).
func (s *Scope) Sampled() uint64 {
	var t uint64
	for i := range s.pools {
		t += s.pools[i].sampled.Load()
	}
	return t
}

// Anomalies returns the total anomaly-flagged journal count across cores.
func (s *Scope) Anomalies() uint64 {
	var t uint64
	for i := range s.pools {
		t += s.pools[i].anomalies.Load()
	}
	return t
}

// JournalEvent is one decoded journal event.
type JournalEvent struct {
	Seq          uint64    `json:"seq"`
	TimeUnixNano int64     `json:"time_unix_nano"`
	Kind         EventKind `json:"kind"`
	KindName     string    `json:"kind_name"`
	A            int64     `json:"a"`
	B            int64     `json:"b,omitempty"`
}

// JournalSnap is one decoded journal: stream identity plus its event ring,
// oldest event first.
type JournalSnap struct {
	Core        int            `json:"core"`
	Index       int            `json:"index"`
	StreamID    uint64         `json:"stream_id"`
	Key         string         `json:"key"`
	Dir         uint8          `json:"dir"`
	Priority    int            `json:"priority"`
	CreatedNano int64          `json:"created_unix_nano"`
	Sampled     bool           `json:"sampled"`
	Anomalies   []string       `json:"anomalies,omitempty"`
	AnomalyMask uint64         `json:"anomaly_mask,omitempty"`
	TotalEvents uint64         `json:"total_events"`
	Events      []JournalEvent `json:"events"`
}

// snapJournal decodes one journal under the generation protocol: the identity
// is accepted only when gen reads the same even value before and after, and
// each event slot only when its seq is stable. Returns ok=false for empty
// journals or journals mid-rebind.
func snapJournal(j *Journal, core, idx int) (JournalSnap, bool) {
	for attempt := 0; attempt < 3; attempt++ {
		g := j.gen.Load()
		if g == 0 || g&1 == 1 {
			return JournalSnap{}, false
		}
		js := JournalSnap{
			Core:        core,
			Index:       idx,
			StreamID:    j.id.Load(),
			CreatedNano: j.created.Load(),
			Sampled:     j.sampled.Load() == 1,
			AnomalyMask: j.anom.Load(),
			TotalEvents: j.ring.Claimed(),
		}
		meta := j.meta.Load()
		var src, dst [16]byte
		putBeUint64(src[:8], j.srcHi.Load())
		putBeUint64(src[8:], j.srcLo.Load())
		putBeUint64(dst[:8], j.dstHi.Load())
		putBeUint64(dst[8:], j.dstLo.Load())
		if j.gen.Load() != g {
			continue
		}
		key := unpackKey(meta, src, dst)
		js.Key = key.String()
		js.Dir = uint8(meta >> 23 & 1)
		js.Priority = int(meta&0xffff) - 1
		js.Anomalies = AnomalyNames(js.AnomalyMask)

		j.ring.Read(func(r metrics.SeqRecord) {
			kind := EventKind(r.Kind)
			js.Events = append(js.Events, JournalEvent{
				Seq: r.Seq, TimeUnixNano: r.TS, Kind: kind, KindName: kind.String(), A: r.A, B: r.B,
			})
		})
		if j.gen.Load() != g {
			continue
		}
		sortEvents(js.Events)
		return js, true
	}
	return JournalSnap{}, false
}

func unpackKey(meta uint64, src, dst [16]byte) pkt.FlowKey {
	var srcIP, dstIP netip.Addr
	if meta&(1<<22) != 0 {
		var s4, d4 [4]byte
		copy(s4[:], src[12:])
		copy(d4[:], dst[12:])
		srcIP, dstIP = netip.AddrFrom4(s4), netip.AddrFrom4(d4)
	} else {
		srcIP, dstIP = netip.AddrFrom16(src), netip.AddrFrom16(dst)
	}
	return pkt.FlowKey{
		SrcIP:   srcIP,
		DstIP:   dstIP,
		SrcPort: uint16(meta >> 48),
		DstPort: uint16(meta >> 32),
		Proto:   uint8(meta >> 24),
	}
}

func sortEvents(evs []JournalEvent) {
	// Events are nearly ordered already (ring order); a small insertion sort
	// restores sequence order without pulling in package sort.
	for i := 1; i < len(evs); i++ {
		for k := i; k > 0 && evs[k-1].Seq > evs[k].Seq; k-- {
			evs[k-1], evs[k] = evs[k], evs[k-1]
		}
	}
}

// Snapshot decodes every bound journal, anomalous journals first, then by
// creation time. Journals mid-rebind are skipped.
func (s *Scope) Snapshot() []JournalSnap {
	var out []JournalSnap
	for core := range s.pools {
		p := &s.pools[core]
		for i := range p.journals {
			if js, ok := snapJournal(&p.journals[i], core, i); ok {
				out = append(out, js)
			}
		}
	}
	sortSnaps(out)
	return out
}

func sortSnaps(out []JournalSnap) {
	less := func(a, b JournalSnap) bool {
		aa, ba := a.AnomalyMask != 0, b.AnomalyMask != 0
		if aa != ba {
			return aa
		}
		if a.CreatedNano != b.CreatedNano {
			return a.CreatedNano < b.CreatedNano
		}
		if a.Core != b.Core {
			return a.Core < b.Core
		}
		return a.Index < b.Index
	}
	for i := 1; i < len(out); i++ {
		for k := i; k > 0 && less(out[k], out[k-1]); k-- {
			out[k-1], out[k] = out[k], out[k-1]
		}
	}
}

// Dump is the /debug/streams JSON wire format.
type Dump struct {
	TimeUnixNano    int64         `json:"time_unix_nano"`
	Cores           int           `json:"cores"`
	JournalsPerCore int           `json:"journals_per_core"`
	SampleEvery     uint64        `json:"sample_every"`
	Sampled         uint64        `json:"sampled_total"`
	Anomalies       uint64        `json:"anomaly_total"`
	Journals        []JournalSnap `json:"journals"`
}

// DumpState packages a snapshot for serving.
func (s *Scope) DumpState() Dump {
	return Dump{
		TimeUnixNano:    (*s.now)(),
		Cores:           len(s.pools),
		JournalsPerCore: int(s.mask + 1),
		SampleEvery:     s.SampleEvery(),
		Sampled:         s.Sampled(),
		Anomalies:       s.Anomalies(),
		Journals:        s.Snapshot(),
	}
}
