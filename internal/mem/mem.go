// Package mem implements Scap's stream-memory accounting and Prioritized
// Packet Loss (paper §2.2 and §7): a fixed memory budget shared by all
// stream data, a base threshold below which nothing is dropped, and n+1
// equally spaced watermarks above it that shed low-priority traffic first,
// with an optional overload cutoff that trims streams beyond a byte
// position while memory is tight.
package mem

import (
	"fmt"
	"sync"
	"sync/atomic"

	"scap/internal/metrics"
)

// Decision is the PPL admission result for one packet.
type Decision uint8

const (
	// Admit stores the packet's payload.
	Admit Decision = iota
	// DropPriority sheds the packet because memory is above its
	// priority's watermark.
	DropPriority
	// DropOverloadCutoff sheds the packet because memory is in the
	// pressure region and the packet lies beyond the overload cutoff in
	// its stream.
	DropOverloadCutoff
	// DropNoMemory sheds the packet because the budget is exhausted.
	DropNoMemory
)

func (d Decision) String() string {
	switch d {
	case Admit:
		return "admit"
	case DropPriority:
		return "drop-priority"
	case DropOverloadCutoff:
		return "drop-overload-cutoff"
	case DropNoMemory:
		return "drop-no-memory"
	}
	return fmt.Sprintf("decision(%d)", uint8(d))
}

// Config parametrizes a Manager.
type Config struct {
	// Size is the total stream-memory budget in bytes (the paper's
	// memory_size; 1 GB in the evaluation).
	Size int64
	// BaseThreshold is the fraction of Size below which PPL never drops.
	// Zero selects the default of 0.9.
	BaseThreshold float64
	// Priorities is the number of priority levels in use (the paper's n).
	// Zero selects 1.
	Priorities int
	// OverloadCutoff, when > 0, drops bytes beyond this position in their
	// stream while memory is inside the pressure region.
	OverloadCutoff int64
	// Watermarks, when non-nil, replaces the equally spaced watermark
	// ladder with an explicit per-priority table (len == Priorities, each
	// value the usage fraction above which that priority is dropped). The
	// control plane derives it from per-priority sketch byte shares; nil
	// keeps the paper's equal spacing. Values are normalized by
	// SetWatermarks, the only writer.
	Watermarks []float64
	// BlockSize is the arena's block granularity in bytes — every chunk
	// lives in exactly one block, so it bounds chunk size (the engine sizes
	// it from ParamChunkSize + overlap headroom). Zero selects
	// DefaultBlockSize; values below the floor are clamped up.
	BlockSize int
	// Cores is the number of per-core block caches (one per capture queue).
	// Zero selects 1; cores beyond this index fall back to the shared
	// global free chain.
	Cores int
}

// Stats counts admission outcomes.
type Stats struct {
	Admitted        uint64
	DroppedPriority uint64
	DroppedCutoff   uint64
	DroppedNoMemory uint64
	HighWater       int64
}

// Manager tracks stream-memory usage and makes PPL decisions. It is a pure
// accounting object: callers reserve and release byte counts; the actual
// buffers live with the streams. One Manager is shared by every core of a
// Scap socket (the paper uses a single stream-memory buffer), so every core
// consults it per packet — the accounting is therefore lock-free: used is
// an atomic counter (Admit reserves with a CAS so a decision and its
// reservation are one atomic step against the budget), the stats are
// independent atomic counters, and the runtime-mutable configuration hangs
// off an atomic.Pointer that readers load once per decision. Only the Set*
// reconfiguration writers serialize, on cfgMu.
//
//scap:shared
type Manager struct {
	cfg atomic.Pointer[Config]
	// cfgMu serializes configuration writers (copy-on-write into cfg);
	// the per-packet paths never touch it.
	cfgMu sync.Mutex

	used atomic.Int64

	admitted        atomic.Uint64
	droppedPriority atomic.Uint64
	droppedCutoff   atomic.Uint64
	droppedNoMemory atomic.Uint64
	highWater       atomic.Int64

	// underPPL is the open-episode flag: set by the first drop after calm,
	// cleared by the release that takes usage back below the base threshold.
	// Only those two edges pay more than one atomic load. flight (set once
	// by PublishMetrics, before capture starts) records them; pplSince is
	// the open episode's start on the recorder's clock.
	flight   atomic.Pointer[metrics.FlightRecorder]
	underPPL atomic.Bool
	pplSince atomic.Int64

	// arena is the physical block store behind the byte accounting
	// (arena.go); built once by New, immutable afterwards.
	arena *arena
}

// New creates a Manager. Invalid configuration values are normalized.
func New(cfg Config) *Manager {
	if cfg.Size <= 0 {
		cfg.Size = 1 << 30
	}
	if cfg.BaseThreshold <= 0 || cfg.BaseThreshold > 1 {
		cfg.BaseThreshold = 0.9
	}
	if cfg.Priorities <= 0 {
		cfg.Priorities = 1
	}
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = DefaultBlockSize
	}
	if cfg.BlockSize < minBlockSize {
		cfg.BlockSize = minBlockSize
	}
	if cfg.Cores <= 0 {
		cfg.Cores = 1
	}
	// Watermark tables are installed only through SetWatermarks, which
	// normalizes them; a table smuggled in via the constructor is dropped.
	cfg.Watermarks = nil
	m := &Manager{}
	m.cfg.Store(&cfg)
	m.arena = newArena(cfg.Size, cfg.BlockSize, cfg.Cores)
	return m
}

// Close stops the arena's background segment committer and waits for it to
// exit. Idempotent. The Manager remains usable afterwards — segments still
// materialize inline on first touch — so late releases and metric reads are
// safe; Close only ends the proactive zeroing.
func (m *Manager) Close() { m.arena.shutdown() }

// Used returns the bytes currently reserved.
func (m *Manager) Used() int64 { return m.used.Load() }

// Size returns the configured budget.
func (m *Manager) Size() int64 { return m.cfg.Load().Size }

// BaseThreshold returns the PPL base threshold fraction in force (the floor
// of the watermark ladder). Safe from any goroutine.
func (m *Manager) BaseThreshold() float64 { return m.cfg.Load().BaseThreshold }

// UsedFraction returns used/size.
func (m *Manager) UsedFraction() float64 {
	return float64(m.used.Load()) / float64(m.cfg.Load().Size)
}

// ArenaUsedFraction returns the fraction of arena blocks currently held by
// chunks — the physical-occupancy companion to UsedFraction's byte
// accounting. Blocks are the binding resource under fragmentation (many
// part-filled chunks), so the control plane watches both.
func (m *Manager) ArenaUsedFraction() float64 {
	if m.arena.nblocks == 0 {
		return 0
	}
	return float64(m.arena.inUse.Load()) / float64(m.arena.nblocks)
}

// Stats returns a snapshot of the counters. Each counter is read
// atomically; the snapshot as a whole is not a consistent cut while
// admissions are in flight.
func (m *Manager) Stats() Stats {
	return Stats{
		Admitted:        m.admitted.Load(),
		DroppedPriority: m.droppedPriority.Load(),
		DroppedCutoff:   m.droppedCutoff.Load(),
		DroppedNoMemory: m.droppedNoMemory.Load(),
		HighWater:       m.highWater.Load(),
	}
}

// SetOverloadCutoff updates the overload cutoff at runtime
// (scap_set_parameter(SCAP_OVERLOAD_CUTOFF, v)).
func (m *Manager) SetOverloadCutoff(v int64) {
	m.cfgMu.Lock()
	defer m.cfgMu.Unlock()
	cfg := *m.cfg.Load()
	cfg.OverloadCutoff = v
	m.cfg.Store(&cfg)
}

// SetPriorities updates the number of priority levels in use.
func (m *Manager) SetPriorities(n int) {
	if n <= 0 {
		return
	}
	m.cfgMu.Lock()
	defer m.cfgMu.Unlock()
	cfg := *m.cfg.Load()
	cfg.Priorities = n
	m.cfg.Store(&cfg)
}

// Watermark returns the memory fraction above which priority level p
// (0 = lowest) is dropped: watermark_{p+1} in the paper's numbering, where
// watermark_0 = base_threshold and watermark_n = 1. When an explicit table
// was installed with SetWatermarks, it answers from that instead.
func (m *Manager) Watermark(p int) float64 {
	return watermark(m.cfg.Load(), p)
}

// Watermarks returns the effective per-priority watermark table (explicit
// table when installed, equal spacing otherwise). Cold path; the slice is a
// fresh copy.
func (m *Manager) Watermarks() []float64 {
	cfg := m.cfg.Load()
	w := make([]float64, cfg.Priorities)
	for p := range w {
		w[p] = watermark(cfg, p)
	}
	return w
}

// SetWatermarks installs an explicit per-priority watermark table, the
// control plane's actuation point for load-aware PPL (§7 follow-on: space
// the ladder by observed per-priority byte share instead of priority count).
// The table is normalized before install: values are clamped into
// (BaseThreshold, 1], forced monotone nondecreasing, and the top priority is
// pinned to 1 so the highest class is only ever shed by budget exhaustion.
// A nil or wrong-length table resets to the default equal spacing.
func (m *Manager) SetWatermarks(w []float64) {
	m.cfgMu.Lock()
	defer m.cfgMu.Unlock()
	cfg := *m.cfg.Load()
	if len(w) != cfg.Priorities {
		cfg.Watermarks = nil
		m.cfg.Store(&cfg)
		return
	}
	t := make([]float64, len(w))
	prev := cfg.BaseThreshold
	for p, v := range w {
		if v < prev {
			v = prev
		}
		if v > 1 {
			v = 1
		}
		t[p] = v
		prev = v
	}
	t[len(t)-1] = 1
	cfg.Watermarks = t
	m.cfg.Store(&cfg)
}

func watermark(cfg *Config, p int) float64 {
	n := cfg.Priorities
	if p >= n {
		p = n - 1
	}
	if p < 0 {
		p = 0
	}
	if len(cfg.Watermarks) == n {
		return cfg.Watermarks[p]
	}
	base := cfg.BaseThreshold
	return base + (1-base)*float64(p+1)/float64(n)
}

// Admit decides the fate of size payload bytes of a packet with the given
// priority (0 = lowest) whose first byte sits at streamPos within its
// stream. On Admit the bytes are reserved; every other decision reserves
// nothing. The decision and its reservation commit together via CAS on
// used, so concurrent admitters can never jointly overshoot the budget.
//
//scap:hotpath
func (m *Manager) Admit(priority int, streamPos int64, size int) Decision {
	cfg := m.cfg.Load()
	for {
		used := m.used.Load()
		d := decide(cfg, used, priority, streamPos, size)
		if d != Admit {
			m.countDrop(d)
			return d
		}
		if m.used.CompareAndSwap(used, used+int64(size)) {
			m.noteHighWater(used + int64(size))
			m.admitted.Add(1)
			return Admit
		}
		// Lost the race against another reservation or release; the
		// decision inputs changed, so re-decide against the new usage.
	}
}

// Decide is Admit without the reservation: the engine uses it to gate
// reassembly, then accounts the actual bytes stored in chunks via Reserve
// (duplicate and out-of-order bytes never hit the budget twice).
//
//scap:hotpath
func (m *Manager) Decide(priority int, streamPos int64, size int) Decision {
	return m.DecidePending(0, priority, streamPos, size)
}

// DecidePending is Decide for a caller that batches its Reserve calls: it
// decides against used plus pending, the bytes the caller has stored since
// its last Reserve, so admission at a watermark does not depend on how many
// packets share one reservation.
//
//scap:hotpath
func (m *Manager) DecidePending(pending int64, priority int, streamPos int64, size int) Decision {
	d := decide(m.cfg.Load(), m.used.Load()+pending, priority, streamPos, size)
	if d != Admit {
		m.countDrop(d)
	}
	return d
}

// decide is the pure PPL function: no state is touched, so callers can
// retry it inside a CAS loop without double-counting.
func decide(cfg *Config, used int64, priority int, streamPos int64, size int) Decision {
	if int64(size) > cfg.Size-used {
		return DropNoMemory
	}
	frac := float64(used+int64(size)) / float64(cfg.Size)
	if frac > cfg.BaseThreshold {
		if frac > watermark(cfg, priority) {
			return DropPriority
		}
		if cfg.OverloadCutoff > 0 && streamPos >= cfg.OverloadCutoff {
			return DropOverloadCutoff
		}
	}
	return Admit
}

func (m *Manager) countDrop(d Decision) {
	switch d {
	case DropPriority:
		m.droppedPriority.Add(1)
	case DropOverloadCutoff:
		m.droppedCutoff.Add(1)
	case DropNoMemory:
		m.droppedNoMemory.Add(1)
	}
	if !m.underPPL.Load() {
		m.pplEnter()
	}
}

// pplEnter opens a pressure episode on the first drop after calm. The CAS
// makes the edge fire once even with every core dropping concurrently.
func (m *Manager) pplEnter() {
	if !m.underPPL.CompareAndSwap(false, true) {
		return
	}
	if f := m.flight.Load(); f != nil {
		ts := f.Now()
		m.pplSince.Store(ts)
		f.NoteAt(0, metrics.FlightPPLEnter, ts, m.used.Load()*1000/m.cfg.Load().Size, 0)
	}
}

// pplExitCheck closes the episode once usage falls back below the base
// threshold, recording how long the pressure lasted.
func (m *Manager) pplExitCheck(used int64) {
	cfg := m.cfg.Load()
	if float64(used) >= cfg.BaseThreshold*float64(cfg.Size) {
		return
	}
	if !m.underPPL.CompareAndSwap(true, false) {
		return
	}
	if f := m.flight.Load(); f != nil {
		ts := f.Now()
		f.NoteAt(0, metrics.FlightPPLExit, ts, ts-m.pplSince.Load(), 0)
	}
}

// UnderPPL reports whether a PPL pressure episode is currently open — one
// atomic load, so hot-path callers can gate pressure-only bookkeeping on it.
//
//scap:hotpath
func (m *Manager) UnderPPL() bool { return m.underPPL.Load() }

// noteHighWater advances the high-water mark monotonically.
func (m *Manager) noteHighWater(used int64) {
	for {
		hw := m.highWater.Load()
		if used <= hw || m.highWater.CompareAndSwap(hw, used) {
			return
		}
	}
}

// Reserve grabs size bytes unconditionally (used for bookkeeping that must
// not fail, e.g. handshake packets, which Scap always captures). It reports
// whether the budget could cover it; on false the reservation still happens
// so accounting stays truthful, and callers should shed load.
//
//scap:hotpath
func (m *Manager) Reserve(size int) bool {
	used := m.used.Add(int64(size))
	m.noteHighWater(used)
	return used <= m.cfg.Load().Size
}

// Release returns size bytes to the budget (chunk consumed by the
// application, stream discarded, etc.).
//
//scap:hotpath
func (m *Manager) Release(size int) {
	used := m.used.Add(-int64(size))
	if used < 0 {
		//scaplint:ignore hotpathalloc panic path: only reached on an accounting bug, never in steady state
		panic(fmt.Sprintf("mem: released more than reserved (used=%d)", used))
	}
	// One atomic load in steady state; the episode-closing work only runs
	// while a PPL pressure episode is open.
	if m.underPPL.Load() {
		m.pplExitCheck(used)
	}
}

// PublishMetrics registers the manager's accounting in reg as func-backed
// instruments reading the existing atomics (no double bookkeeping) and
// routes PPL pressure-episode edges to the registry's flight recorder. Call
// once per registry, before capture starts.
func (m *Manager) PublishMetrics(reg *metrics.Registry) {
	reg.NewCounterFunc(metrics.Desc{Name: "mem_admitted_total", Help: "packet admissions by PPL", Unit: "packets", Paper: "§2.2"}, m.admitted.Load)
	reg.NewCounterFunc(metrics.Desc{Name: "mem_dropped_priority_total", Help: "admissions refused above a priority watermark", Unit: "packets", Paper: "Fig. 9 PPL drops"}, m.droppedPriority.Load)
	reg.NewCounterFunc(metrics.Desc{Name: "mem_dropped_cutoff_total", Help: "admissions refused by the overload cutoff", Unit: "packets", Paper: "§2.2 overload cutoff"}, m.droppedCutoff.Load)
	reg.NewCounterFunc(metrics.Desc{Name: "mem_dropped_nomem_total", Help: "admissions refused with the budget exhausted", Unit: "packets", Paper: "§2.2"}, m.droppedNoMemory.Load)
	reg.NewGaugeFunc(metrics.Desc{Name: "memory_used_bytes", Help: "stream memory currently reserved", Unit: "bytes", Paper: "§2.2 stream memory"}, m.used.Load)
	reg.NewGaugeFunc(metrics.Desc{Name: "memory_highwater_bytes", Help: "peak stream-memory usage", Unit: "bytes", Paper: "§2.2 stream memory"}, m.highWater.Load)
	reg.NewGaugeFunc(metrics.Desc{Name: "memory_size_bytes", Help: "configured stream-memory budget", Unit: "bytes", Paper: "§2.2 memory_size"}, func() int64 { return m.cfg.Load().Size })
	a := m.arena
	reg.NewGaugeFunc(metrics.Desc{Name: "arena_blocks_total", Help: "arena capacity in blocks", Unit: "blocks", Paper: "§2.2 memory blocks"}, func() int64 { return int64(a.nblocks) })
	reg.NewGaugeFunc(metrics.Desc{Name: "arena_block_size_bytes", Help: "arena block granularity", Unit: "bytes", Paper: "§2.2 memory blocks"}, func() int64 { return int64(a.blockSize) })
	reg.NewGaugeFunc(metrics.Desc{Name: "arena_blocks_inuse", Help: "arena blocks currently held by chunks", Unit: "blocks", Paper: "§2.2 memory blocks"}, a.inUse.Load)
	reg.NewGaugeFunc(metrics.Desc{Name: "arena_segments_committed", Help: "arena segments materialized (zeroed) so far", Unit: "segments", Paper: "§2.2 memory blocks"}, func() int64 { return int64(a.committed.Load()) })
	reg.NewGaugeFunc(metrics.Desc{Name: "arena_freelist_global", Help: "blocks on the shared global free chain", Unit: "blocks", Paper: "§2.2 memory blocks"}, a.gcount.Load)
	for i := range a.cores {
		c := &a.cores[i]
		reg.NewGaugeFunc(metrics.Desc{
			Name: fmt.Sprintf("arena_freelist_core%d", i),
			Help: fmt.Sprintf("free blocks cached by core %d (local stack + return ring)", i),
			Unit: "blocks", Paper: "§2.2 memory blocks",
		}, func() int64 { return int64(c.depth.Load()) + c.ringDepth() })
	}
	m.flight.Store(reg.Flight())
}
