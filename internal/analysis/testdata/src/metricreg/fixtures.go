// Package fixtures exercises the metricreg analyzer: only the atomic
// metrics fast path is allowed inside //scap:hotpath functions.
package fixtures

import "scap/internal/metrics"

// engine mirrors the real per-core engine shape: cells and histograms are
// bound at setup, only atomic updates happen per packet.
type engine struct {
	reg     *metrics.Registry
	packets *metrics.Cell
	memUsed *metrics.Gauge
	batch   *metrics.Histogram
	counter *metrics.Counter
	flight  *metrics.FlightRecorder
}

// setup registers metrics outside the hot path: never flagged.
func setup(cores int) *engine {
	reg := metrics.NewRegistry(cores)
	c := reg.NewCounter(metrics.Desc{Name: "packets_total", Unit: "packets"})
	return &engine{
		reg:     reg,
		packets: c.Cell(0),
		memUsed: reg.NewGauge(metrics.Desc{Name: "mem_used", Unit: "bytes"}),
		batch:   reg.NewHistogram(metrics.Desc{Name: "batch", Unit: "events"}, 8),
		counter: c,
		flight:  reg.Flight(),
	}
}

// FastPath uses only allowlisted atomic operations: no diagnostics.
//
//scap:hotpath
func (e *engine) FastPath(n uint64) uint64 {
	e.packets.Add(n)
	e.packets.Inc()
	e.memUsed.Set(int64(n))
	e.memUsed.Add(1)
	e.batch.Observe(0, n)
	e.batch.ObserveEx(0, n, 7)
	e.batch.ObserveN(0, n, 64)
	e.flight.Note(0, metrics.FlightCutoff, int64(n), 0)
	e.batch.Observe(0, uint64(metrics.Nanotime()))
	return e.packets.Load()
}

// RegisterHot registers a counter per packet: flagged.
//
//scap:hotpath
func (e *engine) RegisterHot() {
	c := e.reg.NewCounter(metrics.Desc{Name: "oops", Unit: "packets"}) // want metricreg "RegisterHot: call to metrics.NewCounter in a hot path"
	c.Cell(0).Inc()                                                    // want metricreg "RegisterHot: call to metrics.Cell in a hot path"
}

// ConstructHot builds a whole registry on the packet path: flagged.
//
//scap:hotpath
func ConstructHot(cores int) *metrics.Registry {
	return metrics.NewRegistry(cores) // want metricreg "ConstructHot: call to metrics.NewRegistry in a hot path"
}

// SnapshotHot assembles a snapshot (registry mutex + allocation) per
// packet: flagged, including the cold Counter.Total read loop.
//
//scap:hotpath
func (e *engine) SnapshotHot() uint64 {
	s := e.reg.Snapshot() // want metricreg "SnapshotHot: call to metrics.Snapshot in a hot path"
	_ = s
	return e.counter.Total() // want metricreg "SnapshotHot: call to metrics.Total in a hot path"
}

// Cold is unmarked: registration and snapshots are fine off the hot path.
func (e *engine) Cold() uint64 {
	g := e.reg.NewGauge(metrics.Desc{Name: "cold", Unit: "bytes"})
	g.Set(1)
	s := e.reg.Snapshot()
	return s.CounterTotal("packets_total")
}

// Audited documents a vetted exception with a justification.
//
//scap:hotpath
func (e *engine) Audited() metrics.Snapshot {
	return e.reg.Snapshot() //scaplint:ignore metricreg audited: taken only on the shutdown edge
}

// FlightDumpHot decodes the flight-recorder rings on the packet path:
// flagged with the flight-specific guidance (only the fixed-size no-alloc
// encoder Note may run here).
//
//scap:hotpath
func (e *engine) FlightDumpHot() []metrics.FlightRecord {
	_ = e.flight.Total()       // want metricreg "FlightDumpHot: call to metrics.FlightRecorder.Total in a hot path"
	return e.flight.Snapshot() // want metricreg "FlightDumpHot: call to metrics.FlightRecorder.Snapshot in a hot path"
}

// localMetrics is a non-metrics type whose method names collide with the
// registration surface; calling it on the hot path must not be flagged.
type localMetrics struct{ n uint64 }

func (l *localMetrics) NewCounter() uint64 { return l.n }
func (l *localMetrics) Snapshot() uint64   { return l.n }

// Lookalike calls same-named methods on a local type: no diagnostics.
//
//scap:hotpath
func Lookalike(l *localMetrics) uint64 {
	return l.NewCounter() + l.Snapshot()
}
