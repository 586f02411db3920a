package core

import (
	"fmt"

	"scap/internal/metrics"
)

// Metrics bundles the engine-side instruments of one capture socket. A
// single Metrics is shared by every engine; each engine binds its own core's
// cells once in NewEngine, so per-packet accounting stays a single atomic
// add on a core-local cache line while the registry serves totals, per-core
// breakdowns, and windowed rates to any reader.
type Metrics struct {
	reg *metrics.Registry

	frames       *metrics.Counter
	decodeErrors *metrics.Counter
	fragsHeld    *metrics.Counter
	fragsDropped *metrics.Counter
	packets      *metrics.Counter
	payloadBytes *metrics.Counter
	storedBytes  *metrics.Counter

	filterIgnoredPkts *metrics.Counter
	cutoffPkts        *metrics.Counter
	cutoffBytes       *metrics.Counter
	pplDroppedPkts    *metrics.Counter
	pplDroppedBytes   *metrics.Counter
	eventsLost        *metrics.Counter
	eventsLostBytes   *metrics.Counter
	arenaExhausted    *metrics.Counter

	streamsCreated *metrics.Counter
	streamsClosed  *metrics.Counter
	streamsExpired *metrics.Counter
	streamsEvicted *metrics.Counter

	asmDuplicateBytes *metrics.Counter
	asmDeliveredBytes *metrics.Counter
	asmHolesSkipped   *metrics.Counter
	asmOutOfOrder     *metrics.Counter
	asmDroppedSegs    *metrics.Counter

	fdirInstalled *metrics.Counter
	fdirRemoved   *metrics.Counter

	// Flow-table cost counters (probe work, sweep work) and sketch
	// front-end counters; the owning engine copies the table's plain
	// counters into these cells from its timer path, never per packet.
	flowtabLookups *metrics.Counter
	flowtabProbes  *metrics.Counter
	flowtabSwept   *metrics.Counter
	flowtabGrows   *metrics.Counter

	sketchObservedPkts    *metrics.Counter
	sketchObservedBytes   *metrics.Counter
	sketchSuppressedPkts  *metrics.Counter
	sketchSuppressedBytes *metrics.Counter

	// Per-core occupancy gauges, Set by each owning engine from its timer
	// path (index = core).
	flowtabOccupancy  []*metrics.Gauge
	flowtabCapacity   []*metrics.Gauge
	flowtabTombstones []*metrics.Gauge
	sketchHeavies     []*metrics.Gauge

	// eventBatch and chunkBytes are observed at flush/delivery time (per
	// burst and per chunk, never per packet).
	eventBatch *metrics.Histogram
	chunkBytes *metrics.Histogram

	// stageIngest and stageRing are the kernel-side stage-latency
	// histograms: capture-clock nanoseconds from NIC ingest stamp to engine
	// pickup, and from engine batch entry to event-ring publish.
	stageIngest *metrics.Histogram
	stageRing   *metrics.Histogram

	flight *metrics.FlightRecorder
}

// NewMetrics registers the engine instrument set in reg. Call it once per
// socket, at setup time; it panics if reg already holds these names.
func NewMetrics(reg *metrics.Registry) *Metrics {
	d := func(name, help, unit, paper string) metrics.Desc {
		return metrics.Desc{Name: name, Help: help, Unit: unit, Paper: paper}
	}
	// drop tags a counter into the drops{cause} attribution family.
	drop := func(name, help, unit, paper, cause string) metrics.Desc {
		return metrics.Desc{Name: name, Help: help, Unit: unit, Paper: paper, Family: "drops", Cause: cause}
	}
	m := &Metrics{reg: reg}
	m.frames = reg.NewCounter(d("frames_total", "frames handled by the kernel path", "frames", ""))
	m.decodeErrors = reg.NewCounter(d("decode_errors_total", "undecodable frames", "frames", ""))
	m.fragsHeld = reg.NewCounter(d("frags_held_total", "IP fragments absorbed by the defragmenter", "frames", "§2.3 strict mode"))
	m.fragsDropped = reg.NewCounter(d("frags_dropped_total", "IP fragments dropped (fast mode)", "frames", "§2.3 fast mode"))
	m.packets = reg.NewCounter(d("packets_total", "packets processed by the engines", "packets", "Fig. 7 processed packets"))
	m.payloadBytes = reg.NewCounter(d("payload_bytes_total", "transport payload seen", "bytes", ""))
	m.storedBytes = reg.NewCounter(d("stored_bytes_total", "payload written into stream memory", "bytes", "§4 cost model stored bytes"))
	m.filterIgnoredPkts = reg.NewCounter(drop("filter_ignored_pkts_total", "packets of streams rejected by the BPF filter", "packets", "Table 1 scap_set_filter", "filter"))
	m.cutoffPkts = reg.NewCounter(drop("cutoff_pkts_total", "packets discarded beyond stream cutoffs", "packets", "Fig. 8 cutoff savings", "cutoff"))
	m.cutoffBytes = reg.NewCounter(d("cutoff_bytes_total", "bytes discarded beyond stream cutoffs", "bytes", "Fig. 8 cutoff savings"))
	m.pplDroppedPkts = reg.NewCounter(drop("ppl_dropped_pkts_total", "packets shed by prioritized packet loss", "packets", "Fig. 9 PPL drops", "ppl"))
	m.pplDroppedBytes = reg.NewCounter(d("ppl_dropped_bytes_total", "bytes shed by prioritized packet loss", "bytes", "Fig. 9 PPL drops"))
	m.eventsLost = reg.NewCounter(drop("events_lost_total", "events lost to full event rings", "events", "", "event_ring"))
	m.eventsLostBytes = reg.NewCounter(d("events_lost_bytes_total", "chunk bytes lost with dropped events", "bytes", ""))
	m.arenaExhausted = reg.NewCounter(drop("arena_exhausted_total", "chunks diverted to transient heap buffers because no arena block was free", "chunks", "§2.2 memory blocks", "arena_exhausted"))
	m.streamsCreated = reg.NewCounter(d("streams_created_total", "stream directions tracked", "streams", "Table 1 scap_dispatch_creation"))
	m.streamsClosed = reg.NewCounter(d("streams_closed_total", "streams terminated by FIN/RST", "streams", ""))
	m.streamsExpired = reg.NewCounter(d("streams_expired_total", "streams expired by inactivity", "streams", "§5.2 expiry sweep"))
	m.streamsEvicted = reg.NewCounter(d("streams_evicted_total", "streams evicted under table pressure", "streams", ""))
	m.asmDuplicateBytes = reg.NewCounter(d("asm_duplicate_bytes_total", "retransmitted bytes the assembler discarded", "bytes", ""))
	m.asmDeliveredBytes = reg.NewCounter(d("asm_delivered_bytes_total", "bytes the assembler delivered in order", "bytes", ""))
	m.asmHolesSkipped = reg.NewCounter(d("asm_holes_skipped_total", "sequence holes skipped (fast mode)", "holes", "§2.3 fast mode"))
	m.asmOutOfOrder = reg.NewCounter(d("asm_out_of_order_total", "out-of-order segments buffered", "segments", ""))
	m.asmDroppedSegs = reg.NewCounter(d("asm_dropped_segs_total", "segments the assembler dropped", "segments", ""))
	m.fdirInstalled = reg.NewCounter(d("fdir_installed_total", "NIC drop-filter installs for cutoff streams", "filters", "§5.5 subzero copy"))
	m.fdirRemoved = reg.NewCounter(d("fdir_removed_total", "NIC drop-filter removals", "filters", "§5.5 subzero copy"))
	m.flowtabLookups = reg.NewCounter(d("flowtab_lookups_total", "flow-table lookups (incl. create fast path)", "lookups", "§5.2 flow table"))
	m.flowtabProbes = reg.NewCounter(d("flowtab_probe_groups_total", "slot groups examined by lookups", "groups", "§5.2 flow table"))
	m.flowtabSwept = reg.NewCounter(d("flowtab_swept_groups_total", "slot groups visited by expiry sweeps", "groups", "§5.2 expiry sweep"))
	m.flowtabGrows = reg.NewCounter(d("flowtab_grows_total", "flow-table rehashes (growth or tombstone purge)", "rehashes", ""))
	m.sketchObservedPkts = reg.NewCounter(d("sketch_observed_pkts_total", "packets accounted by the sketch front-end", "packets", "§5.5 + PSketch"))
	m.sketchObservedBytes = reg.NewCounter(d("sketch_observed_bytes_total", "payload bytes accounted by the sketch front-end", "bytes", "§5.5 + PSketch"))
	m.sketchSuppressedPkts = reg.NewCounter(drop("sketch_suppressed_pkts_total", "packets answered by the sketch without a stream record", "packets", "§5.5 + PSketch", "sketch"))
	m.sketchSuppressedBytes = reg.NewCounter(d("sketch_suppressed_bytes_total", "payload bytes suppressed via the sketch", "bytes", "§5.5 + PSketch"))
	for core := 0; core < reg.Cores(); core++ {
		m.flowtabOccupancy = append(m.flowtabOccupancy, reg.NewGauge(d(fmt.Sprintf("flowtab_occupancy_core%d", core), "tracked streams in this core's flow table", "streams", "")))
		m.flowtabCapacity = append(m.flowtabCapacity, reg.NewGauge(d(fmt.Sprintf("flowtab_capacity_core%d", core), "slot capacity of this core's flow table", "slots", "")))
		m.flowtabTombstones = append(m.flowtabTombstones, reg.NewGauge(d(fmt.Sprintf("flowtab_tombstones_core%d", core), "tombstoned slots awaiting rehash", "slots", "")))
		m.sketchHeavies = append(m.sketchHeavies, reg.NewGauge(d(fmt.Sprintf("sketch_heavies_core%d", core), "live heavy-flow entries in this core's sketch", "flows", "")))
	}
	m.eventBatch = reg.NewHistogram(d("event_batch_size", "events published to a ring per flush", "events", ""), 8)
	m.chunkBytes = reg.NewHistogram(d("chunk_bytes", "delivered chunk sizes", "bytes", "Table 1 scap_set_chunk_size"), 20)
	m.stageIngest = reg.NewHistogram(d("stage_ingest_engine_ns", "latency from NIC ingest stamp to kernel-goroutine pickup", "ns", ""), stageMaxPow)
	m.stageRing = reg.NewHistogram(d("stage_engine_ring_ns", "latency from kernel-goroutine batch entry to event-ring publish", "ns", ""), stageMaxPow)
	m.flight = reg.Flight()
	return m
}

// stageMaxPow bounds the stage-latency histograms: 2^38 ns ≈ 275 s, far past
// any plausible pipeline latency, so the overflow bucket stays empty in
// practice while the rows remain a few hundred bytes per core.
const stageMaxPow = 38

// Registry returns the registry the instruments live in.
func (m *Metrics) Registry() *metrics.Registry { return m.reg }

// cells is one engine's bound view of the per-core counters: exactly the
// old private atomic counter block, now living in the registry's slab for
// this core. The owning kernel goroutine is the only writer.
type cells struct {
	frames       *metrics.Cell
	decodeErrors *metrics.Cell
	fragsHeld    *metrics.Cell
	fragsDropped *metrics.Cell
	packets      *metrics.Cell
	payloadBytes *metrics.Cell
	storedBytes  *metrics.Cell

	filterIgnoredPkts *metrics.Cell
	cutoffPkts        *metrics.Cell
	cutoffBytes       *metrics.Cell
	pplDroppedPkts    *metrics.Cell
	pplDroppedBytes   *metrics.Cell
	eventsLost        *metrics.Cell
	eventsLostBytes   *metrics.Cell
	arenaExhausted    *metrics.Cell

	streamsCreated *metrics.Cell
	streamsClosed  *metrics.Cell
	streamsExpired *metrics.Cell
	streamsEvicted *metrics.Cell

	asmDuplicateBytes *metrics.Cell
	asmDeliveredBytes *metrics.Cell
	asmHolesSkipped   *metrics.Cell
	asmOutOfOrder     *metrics.Cell
	asmDroppedSegs    *metrics.Cell

	fdirInstalled *metrics.Cell
	fdirRemoved   *metrics.Cell

	flowtabLookups *metrics.Cell
	flowtabProbes  *metrics.Cell
	flowtabSwept   *metrics.Cell
	flowtabGrows   *metrics.Cell

	sketchObservedPkts    *metrics.Cell
	sketchObservedBytes   *metrics.Cell
	sketchSuppressedPkts  *metrics.Cell
	sketchSuppressedBytes *metrics.Cell

	// This core's occupancy gauges (indexed from the Metrics slices).
	flowtabOccupancy  *metrics.Gauge
	flowtabCapacity   *metrics.Gauge
	flowtabTombstones *metrics.Gauge
	sketchHeavies     *metrics.Gauge
}

// bind resolves the engine's cells for one core. Registration-time only.
func (m *Metrics) bind(core int) cells {
	return cells{
		frames:       m.frames.Cell(core),
		decodeErrors: m.decodeErrors.Cell(core),
		fragsHeld:    m.fragsHeld.Cell(core),
		fragsDropped: m.fragsDropped.Cell(core),
		packets:      m.packets.Cell(core),
		payloadBytes: m.payloadBytes.Cell(core),
		storedBytes:  m.storedBytes.Cell(core),

		filterIgnoredPkts: m.filterIgnoredPkts.Cell(core),
		cutoffPkts:        m.cutoffPkts.Cell(core),
		cutoffBytes:       m.cutoffBytes.Cell(core),
		pplDroppedPkts:    m.pplDroppedPkts.Cell(core),
		pplDroppedBytes:   m.pplDroppedBytes.Cell(core),
		eventsLost:        m.eventsLost.Cell(core),
		eventsLostBytes:   m.eventsLostBytes.Cell(core),
		arenaExhausted:    m.arenaExhausted.Cell(core),

		streamsCreated: m.streamsCreated.Cell(core),
		streamsClosed:  m.streamsClosed.Cell(core),
		streamsExpired: m.streamsExpired.Cell(core),
		streamsEvicted: m.streamsEvicted.Cell(core),

		asmDuplicateBytes: m.asmDuplicateBytes.Cell(core),
		asmDeliveredBytes: m.asmDeliveredBytes.Cell(core),
		asmHolesSkipped:   m.asmHolesSkipped.Cell(core),
		asmOutOfOrder:     m.asmOutOfOrder.Cell(core),
		asmDroppedSegs:    m.asmDroppedSegs.Cell(core),

		fdirInstalled: m.fdirInstalled.Cell(core),
		fdirRemoved:   m.fdirRemoved.Cell(core),

		flowtabLookups: m.flowtabLookups.Cell(core),
		flowtabProbes:  m.flowtabProbes.Cell(core),
		flowtabSwept:   m.flowtabSwept.Cell(core),
		flowtabGrows:   m.flowtabGrows.Cell(core),

		sketchObservedPkts:    m.sketchObservedPkts.Cell(core),
		sketchObservedBytes:   m.sketchObservedBytes.Cell(core),
		sketchSuppressedPkts:  m.sketchSuppressedPkts.Cell(core),
		sketchSuppressedBytes: m.sketchSuppressedBytes.Cell(core),

		flowtabOccupancy:  m.flowtabOccupancy[core],
		flowtabCapacity:   m.flowtabCapacity[core],
		flowtabTombstones: m.flowtabTombstones[core],
		sketchHeavies:     m.sketchHeavies[core],
	}
}
