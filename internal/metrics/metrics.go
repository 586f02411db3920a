// Package metrics is the capture path's observability substrate: a
// dependency-free registry of live counters, gauges, and histograms that the
// hot path can update with single uncontended atomic operations while any
// goroutine assembles consistent-enough snapshots, windowed rates, and typed
// overload events without stalling it.
//
// The design splits every instrument into a registration-time half and an
// update-time half:
//
//   - Registration (NewCounter, NewGauge, NewHistogram, ...) happens once,
//     outside the per-packet path, under the registry mutex. The scaplint
//     metricreg analyzer enforces this split statically.
//   - Updates go through pre-bound handles: a per-core Counter hands each
//     engine its own *Cell (one slot in that core's padded slab), so an
//     increment is exactly one atomic add on a cache line no other core
//     writes. Gauges and histogram observations are likewise single atomic
//     operations.
//
// Per-core counters are laid out as one slab per core rather than one padded
// cell per metric: all of a core's counters stay contiguous (the engine's
// working set spans a few lines, not one line per counter) while different
// cores' slabs are separate allocations, so there is no false sharing between
// cores. Readers sum the per-core cells on demand; like /proc counters, a
// snapshot taken mid-burst may lag individual fields by a packet.
package metrics

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Desc names and documents one metric. Name is the wire identifier
// (snake_case, e.g. "packets_total"); Unit is the measured unit ("packets",
// "bytes", "ns"); Paper optionally names the paper counterpart the metric
// reproduces (e.g. "Fig. 9 dropped packets per priority"). Family groups
// related metrics into one logical table ("drops"), with Cause naming the
// member within it ("ppl", "cutoff", "ring_full", ...), so consumers can
// render attribution tables without hard-coding every metric name.
type Desc struct {
	Name   string `json:"name"`
	Help   string `json:"help,omitempty"`
	Unit   string `json:"unit,omitempty"`
	Paper  string `json:"paper,omitempty"`
	Family string `json:"family,omitempty"`
	Cause  string `json:"cause,omitempty"`
}

// nanotimeBase anchors the capture clock: Nanotime reads are monotonic
// offsets from process start, consistent across goroutines.
var nanotimeBase = time.Now()

// Nanotime returns monotonic nanoseconds since process start. It is the
// capture clock for stage-latency stamps: alloc-free, lock-free, and safe in
// //scap:hotpath code (unlike time.Now, whose wall-clock reading the
// hotpathalloc analyzer bans there).
//
//scap:hotpath
func Nanotime() int64 { return int64(time.Since(nanotimeBase)) }

// slabSlots bounds how many per-core counters one registry can hold. The
// slabs are pre-allocated at this capacity so Cell pointers handed to the
// hot path are never invalidated by registration-time growth.
const slabSlots = 256

// Cell is one core's slot of a per-core Counter. The owning core updates it
// with single atomic adds; any goroutine may Load it.
//
//scap:atomics
type Cell struct {
	n atomic.Uint64
}

// Add increments the cell by d.
//
//scap:hotpath
func (c *Cell) Add(d uint64) { c.n.Add(d) }

// Inc increments the cell by one.
//
//scap:hotpath
func (c *Cell) Inc() { c.n.Add(1) }

// Load returns the cell's current value.
func (c *Cell) Load() uint64 { return c.n.Load() }

// Counter is a monotonically increasing per-core counter. Writers bind their
// core's Cell once (outside the hot path) and increment it with atomic adds;
// Total and PerCore sum the cells on demand.
type Counter struct {
	desc Desc
	reg  *Registry
	slot int
}

// Desc returns the counter's metadata.
func (c *Counter) Desc() Desc { return c.desc }

// Cell returns the cell owned by core. Bind it once at setup; do not call
// this on the per-packet path.
func (c *Counter) Cell(core int) *Cell {
	return &c.reg.slabs[core][c.slot]
}

// Total sums the per-core cells.
func (c *Counter) Total() uint64 {
	var t uint64
	for core := range c.reg.slabs {
		t += c.reg.slabs[core][c.slot].Load()
	}
	return t
}

// PerCore appends each core's value to dst and returns it.
func (c *Counter) PerCore(dst []uint64) []uint64 {
	for core := range c.reg.slabs {
		dst = append(dst, c.reg.slabs[core][c.slot].Load())
	}
	return dst
}

// Gauge is an instantaneous value set or adjusted atomically.
type Gauge struct {
	desc Desc
	v    atomic.Int64
}

// Desc returns the gauge's metadata.
func (g *Gauge) Desc() Desc { return g.desc }

// Set stores v.
//
//scap:hotpath
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by d.
//
//scap:hotpath
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Load returns the gauge's current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// funcGauge reads its value from a callback at snapshot time — for values
// another subsystem already maintains (e.g. the memory manager's atomic
// usage counter) that should appear in the registry without double
// bookkeeping.
type funcGauge struct {
	desc Desc
	fn   func() int64
}

// funcCounter is funcGauge for monotone counters kept elsewhere. perCore,
// when set, appends the per-core breakdown at snapshot time.
type funcCounter struct {
	desc    Desc
	fn      func() uint64
	perCore func(dst []uint64) []uint64
}

// Registry is the central metric index of one capture socket. Registration
// serializes on mu; updates never touch it. The zero value is not usable —
// create registries with NewRegistry.
type Registry struct {
	cores int
	now   func() int64

	mu       sync.Mutex
	slabs    [][]Cell // one pre-allocated slab per core
	nextSlot int
	byName   map[string]bool
	counters []*Counter
	fcs      []*funcCounter
	gauges   []*Gauge
	fgs      []*funcGauge
	hists    []*Histogram
	flight   *FlightRecorder
}

// NewRegistry creates a registry for the given number of cores (per-core
// counters get one cell per core; at least one).
func NewRegistry(cores int) *Registry {
	if cores < 1 {
		cores = 1
	}
	r := &Registry{
		cores:  cores,
		now:    func() int64 { return time.Now().UnixNano() },
		slabs:  make([][]Cell, cores),
		byName: make(map[string]bool),
	}
	for i := range r.slabs {
		r.slabs[i] = make([]Cell, slabSlots)
	}
	r.flight = newFlightRecorder(cores, defaultFlightCap, &r.now)
	return r
}

// SetClock replaces the wall clock (unix nanoseconds) used to stamp
// snapshots and events — tests inject a synthetic clock here. Call it before
// the registry is shared.
func (r *Registry) SetClock(now func() int64) { r.now = now }

// Cores returns the number of per-core cells each counter carries.
func (r *Registry) Cores() int { return r.cores }

// register reserves a metric name or panics: duplicate registration is a
// programming error, caught at startup.
func (r *Registry) register(d Desc) {
	if d.Name == "" {
		panic("metrics: empty metric name")
	}
	if r.byName[d.Name] {
		panic(fmt.Sprintf("metrics: duplicate metric %q", d.Name))
	}
	r.byName[d.Name] = true
}

// NewCounter registers a per-core counter. It panics on duplicate names or
// when the slab capacity is exhausted. Registration only; not hot-path safe.
func (r *Registry) NewCounter(d Desc) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(d)
	if r.nextSlot >= slabSlots {
		panic("metrics: per-core counter slab exhausted")
	}
	c := &Counter{desc: d, reg: r, slot: r.nextSlot}
	r.nextSlot++
	r.counters = append(r.counters, c)
	return c
}

// NewCounterFunc registers a counter whose value is read from fn at snapshot
// time (no per-core breakdown). fn must be safe to call from any goroutine.
func (r *Registry) NewCounterFunc(d Desc, fn func() uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(d)
	r.fcs = append(r.fcs, &funcCounter{desc: d, fn: fn})
}

// NewCounterFuncPerCore registers a func-backed counter that also exposes a
// per-core breakdown: perCore appends one value per core to dst. Both
// callbacks must be safe to call from any goroutine.
func (r *Registry) NewCounterFuncPerCore(d Desc, fn func() uint64, perCore func(dst []uint64) []uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(d)
	r.fcs = append(r.fcs, &funcCounter{desc: d, fn: fn, perCore: perCore})
}

// NewGauge registers a gauge.
func (r *Registry) NewGauge(d Desc) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(d)
	g := &Gauge{desc: d}
	r.gauges = append(r.gauges, g)
	return g
}

// NewGaugeFunc registers a gauge whose value is read from fn at snapshot
// time. fn must be safe to call from any goroutine.
func (r *Registry) NewGaugeFunc(d Desc, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(d)
	r.fgs = append(r.fgs, &funcGauge{desc: d, fn: fn})
}

// NewHistogram registers a power-of-two histogram with buckets
// le 2^0, 2^1, ..., 2^maxPow plus an overflow bucket.
func (r *Registry) NewHistogram(d Desc, maxPow int) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(d)
	h := newHistogram(d, r.cores, maxPow)
	r.hists = append(r.hists, h)
	return h
}

// Flight returns the registry's flight recorder. Bind it once at setup; the
// only method safe on the per-packet path is FlightRecorder.Note.
func (r *Registry) Flight() *FlightRecorder { return r.flight }

// CounterSnap is one counter's snapshot: the summed total plus the per-core
// breakdown (nil for func-backed counters).
type CounterSnap struct {
	Desc
	Total   uint64   `json:"total"`
	PerCore []uint64 `json:"per_core,omitempty"`
}

// GaugeSnap is one gauge's snapshot.
type GaugeSnap struct {
	Desc
	Value int64 `json:"value"`
}

// Snapshot is a point-in-time view of every registered metric. Counters are
// read atomically one by one; the snapshot as a whole is not a consistent
// cut while updates are in flight (the /proc-counters model).
type Snapshot struct {
	TimeUnixNano int64           `json:"time_unix_nano"`
	Counters     []CounterSnap   `json:"counters"`
	Gauges       []GaugeSnap     `json:"gauges"`
	Histograms   []HistogramSnap `json:"histograms"`
}

// Snapshot collects the current value of every metric, in registration
// order.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{TimeUnixNano: r.now()}
	for _, c := range r.counters {
		pc := c.PerCore(make([]uint64, 0, r.cores))
		var t uint64
		for _, v := range pc {
			t += v
		}
		s.Counters = append(s.Counters, CounterSnap{Desc: c.desc, Total: t, PerCore: pc})
	}
	for _, fc := range r.fcs {
		cs := CounterSnap{Desc: fc.desc, Total: fc.fn()}
		if fc.perCore != nil {
			cs.PerCore = fc.perCore(make([]uint64, 0, r.cores))
		}
		s.Counters = append(s.Counters, cs)
	}
	for _, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeSnap{Desc: g.desc, Value: g.Load()})
	}
	for _, fg := range r.fgs {
		s.Gauges = append(s.Gauges, GaugeSnap{Desc: fg.desc, Value: fg.fn()})
	}
	for _, h := range r.hists {
		s.Histograms = append(s.Histograms, h.snapshot())
	}
	return s
}

// CounterTotal returns the total of the named counter in the snapshot, or 0
// when absent.
func (s *Snapshot) CounterTotal(name string) uint64 {
	for i := range s.Counters {
		if s.Counters[i].Name == name {
			return s.Counters[i].Total
		}
	}
	return 0
}

// GaugeValue returns the named gauge's value in the snapshot, or 0 when
// absent.
func (s *Snapshot) GaugeValue(name string) int64 {
	for i := range s.Gauges {
		if s.Gauges[i].Name == name {
			return s.Gauges[i].Value
		}
	}
	return 0
}
