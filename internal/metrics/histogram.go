package metrics

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Histogram counts observations in power-of-two buckets: bucket i counts
// values v with v <= 2^i (the final bucket absorbs everything larger).
// Like counters, buckets are kept per core — each core observes into its
// own row (padded to whole cache lines), so concurrent engines never
// contend on a bucket's cache line — and rows are summed at snapshot
// time. An observation is two uncontended atomic adds (bucket + sum).
type Histogram struct {
	desc Desc
	nb   int // bucket count: le 2^0 .. 2^maxPow, plus one overflow bucket
	// rows holds one bucket row per core: slots [0..nb) are the buckets,
	// slot nb is the value sum, and the row is padded to a multiple of
	// eight slots (64 bytes) so rows do not share cache lines.
	rows [][]atomic.Uint64
	ex   exemplar
}

// exemplar is the histogram's tail exemplar: the stream behind the most
// recent highest-bucket observation since the last snapshot, so a p99 spike
// links to a concrete stream journal. It is one seqlock-guarded record;
// bucket doubles as a ratchet — only observations landing at or above the
// current exemplar's bucket replace it, and every snapshot re-arms the
// ratchet (bucket -1) while keeping the last exemplar visible.
//
//scap:atomics
type exemplar struct {
	seq    atomic.Uint64 // even = stable, odd = write in progress
	bucket atomic.Int64  // bucket index of the held exemplar; -1 = re-armed
	val    atomic.Uint64
	id     atomic.Uint64 // stream ID of the observation
	ts     atomic.Int64  // capture clock (Nanotime) at observation
}

func newHistogram(d Desc, cores, maxPow int) *Histogram {
	if maxPow < 0 {
		maxPow = 0
	}
	if cores < 1 {
		cores = 1
	}
	nb := maxPow + 2
	rowLen := (nb + 1 + 7) &^ 7
	h := &Histogram{desc: d, nb: nb, rows: make([][]atomic.Uint64, cores)}
	for i := range h.rows {
		h.rows[i] = make([]atomic.Uint64, rowLen)
	}
	h.ex.bucket.Store(-1)
	return h
}

// Desc returns the histogram's metadata.
func (h *Histogram) Desc() Desc { return h.desc }

// Observe records one observation of v on core's row. An out-of-range
// core falls back to row 0.
//
//scap:hotpath
func (h *Histogram) Observe(core int, v uint64) { h.ObserveN(core, v, 1) }

// ObserveN records n observations of the same value v in one step — two
// atomic adds however large n is. Burst-granular callers (frames that share
// one ingest stamp) use it instead of n Observe calls.
//
//scap:hotpath
func (h *Histogram) ObserveN(core int, v, n uint64) {
	if core < 0 || core >= len(h.rows) {
		core = 0
	}
	row := h.rows[core]
	i := 0
	if v > 1 {
		i = bits.Len64(v - 1) // smallest i with 2^i >= v
	}
	if i >= h.nb {
		i = h.nb - 1
	}
	row[i].Add(n)
	row[h.nb].Add(v * n)
}

// ObserveEx records one observation of v attributed to streamID, updating
// the histogram's tail exemplar when the observation lands at or above the
// exemplar's current bucket. The exemplar write is a best-effort seqlock:
// contended writers simply skip (losing an exemplar candidate, never
// blocking), so the cost over Observe stays a couple of uncontended atomics.
//
//scap:hotpath
func (h *Histogram) ObserveEx(core int, v, streamID uint64) {
	h.Observe(core, v)
	i := 0
	if v > 1 {
		i = bits.Len64(v - 1)
	}
	if i >= h.nb {
		i = h.nb - 1
	}
	if int64(i) < h.ex.bucket.Load() {
		return
	}
	// Inline seqlock write (mirrors FlightRecorder.Note's slot protocol):
	// claim via CAS to odd, store fields, publish even.
	cur := h.ex.seq.Load()
	if cur&1 == 1 || !h.ex.seq.CompareAndSwap(cur, cur+1) {
		return
	}
	h.ex.bucket.Store(int64(i))
	h.ex.val.Store(v)
	h.ex.id.Store(streamID)
	h.ex.ts.Store(Nanotime())
	h.ex.seq.Store(cur + 2)
}

// BucketSnap is one histogram bucket: the count of observations with value
// <= Le (Le 0 marks the overflow bucket).
type BucketSnap struct {
	Le    uint64 `json:"le"`
	Count uint64 `json:"count"`
}

// ExemplarSnap is a histogram's decoded tail exemplar: the stream behind the
// most recent tail-bucket observation. Le is the upper bound of the bucket
// the exemplar landed in (0 = overflow bucket), AgeNano its age relative to
// the capture clock at snapshot time.
type ExemplarSnap struct {
	Value    uint64 `json:"value"`
	StreamID uint64 `json:"stream_id"`
	Le       uint64 `json:"le"`
	AgeNano  int64  `json:"age_nano"`
}

// HistogramSnap is one histogram's snapshot.
type HistogramSnap struct {
	Desc
	Count    uint64        `json:"count"`
	Sum      uint64        `json:"sum"`
	Buckets  []BucketSnap  `json:"buckets"`
	Exemplar *ExemplarSnap `json:"exemplar,omitempty"`
}

// QuantileFromSnap estimates the p-quantile (0 < p <= 1) of a histogram
// snapshot. Within the matched power-of-two bucket (2^(i-1), 2^i] the
// estimate interpolates log-linearly — v = lo · (hi/lo)^frac — matching the
// buckets' geometric spacing, so the estimate is never off by more than the
// bucket's 2x width and tracks the true quantile closely for smooth
// distributions. The first bucket [0, 1] interpolates linearly. When the
// quantile lands in the overflow bucket the largest finite bound is returned
// (a lower bound on the true value). A zero-count snapshot yields 0.
func QuantileFromSnap(s HistogramSnap, p float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	target := p * float64(s.Count)
	if target < 1 {
		target = 1
	}
	var cum, lo float64
	for _, b := range s.Buckets {
		if b.Le == 0 { // overflow bucket: range unknown
			return lo
		}
		hi := float64(b.Le)
		if b.Count > 0 && cum+float64(b.Count) >= target {
			frac := (target - cum) / float64(b.Count)
			if lo == 0 {
				return hi * frac
			}
			return lo * math.Pow(hi/lo, frac)
		}
		cum += float64(b.Count)
		lo = hi
	}
	return lo
}

// Snap returns a point-in-time snapshot of the histogram (buckets summed
// across cores). Cold path: the control plane and tests read quantiles from
// it via QuantileFromSnap without assembling a whole registry snapshot.
func (h *Histogram) Snap() HistogramSnap { return h.snapshot() }

func (h *Histogram) snapshot() HistogramSnap {
	s := HistogramSnap{Desc: h.desc}
	for i := 0; i < h.nb; i++ {
		var n uint64
		for _, row := range h.rows {
			n += row[i].Load()
		}
		s.Count += n
		le := uint64(1) << uint(i)
		if i == h.nb-1 {
			le = 0 // overflow bucket
		}
		s.Buckets = append(s.Buckets, BucketSnap{Le: le, Count: n})
	}
	for _, row := range h.rows {
		s.Sum += row[h.nb].Load()
	}
	s.Exemplar = h.snapExemplar()
	return s
}

// snapExemplar reads the exemplar under its seqlock and re-arms the ratchet
// so the next tail observation — in any bucket — becomes the new exemplar.
// Returns nil when no exemplar was ever recorded or the read raced a writer.
func (h *Histogram) snapExemplar() *ExemplarSnap {
	for attempt := 0; attempt < 3; attempt++ {
		seq := h.ex.seq.Load()
		if seq == 0 {
			return nil
		}
		if seq&1 == 1 {
			continue
		}
		e := ExemplarSnap{
			Value:    h.ex.val.Load(),
			StreamID: h.ex.id.Load(),
			AgeNano:  Nanotime() - h.ex.ts.Load(),
		}
		if h.ex.seq.Load() != seq {
			continue
		}
		// Le derives from the value (the ratchet word may already be
		// re-armed from a prior scrape); 0 marks the overflow bucket.
		i := 0
		if e.Value > 1 {
			i = bits.Len64(e.Value - 1)
		}
		if i < h.nb-1 {
			e.Le = uint64(1) << uint(i)
		}
		// Re-arm: any subsequent observation may claim the exemplar. The
		// exemplar fields stay readable between scrapes.
		h.ex.bucket.Store(-1)
		return &e
	}
	return nil
}
