package metrics

import "sync"

// Window turns a registry's monotone snapshots into windowed rates: each
// Collect diffs the current snapshot against the previous one and divides by
// the elapsed wall time, making quantities like PPL-dropped packets per
// second first-class instead of leaving the time dimension to the consumer.
// The window length is simply the time between Collect calls, so a poller
// (the /metrics handler, scaptop) sets its own resolution.
type Window struct {
	reg *Registry

	mu   sync.Mutex
	prev Snapshot
	ok   bool
}

// NewWindow creates a rate window over reg. The first Collect has no
// predecessor and reports zero rates.
func NewWindow(reg *Registry) *Window { return &Window{reg: reg} }

// Collect snapshots the registry and returns the payload with per-counter
// rates (and per-core rates) computed over the time since the previous
// Collect, plus the events view of the flight recorder. Safe for concurrent
// use; concurrent callers serialize and each diff is against the immediately
// preceding snapshot.
func (w *Window) Collect() Payload {
	p := w.collectRates()
	p.Events = eventsView(w.reg.Flight().Snapshot())
	return p
}

// collectRates is Collect without the events view, for the history ring,
// which keeps no events and should not decode the flight rings every tick.
func (w *Window) collectRates() Payload {
	w.mu.Lock()
	defer w.mu.Unlock()
	cur := w.reg.Snapshot()
	p := Payload{
		TimeUnixNano: cur.TimeUnixNano,
		Cores:        w.reg.Cores(),
		Gauges:       cur.Gauges,
		Histograms:   cur.Histograms,
	}
	var dt float64 // seconds
	if w.ok && cur.TimeUnixNano > w.prev.TimeUnixNano {
		dt = float64(cur.TimeUnixNano-w.prev.TimeUnixNano) / 1e9
		p.WindowSeconds = dt
	}
	for i := range cur.Counters {
		c := CounterPayload{CounterSnap: cur.Counters[i]}
		if dt > 0 && i < len(w.prev.Counters) && w.prev.Counters[i].Name == c.Name {
			prev := &w.prev.Counters[i]
			c.Rate = rate(c.Total, prev.Total, dt)
			if len(c.PerCore) > 0 {
				c.PerCoreRate = make([]float64, len(c.PerCore))
				for core, v := range c.PerCore {
					var pv uint64
					if core < len(prev.PerCore) {
						pv = prev.PerCore[core]
					}
					c.PerCoreRate[core] = rate(v, pv, dt)
				}
			}
		}
		p.Counters = append(p.Counters, c)
	}
	for i := range p.Counters {
		if p.Counters[i].Family == "drops" {
			p.Drops = append(p.Drops, p.Counters[i])
		}
	}
	w.prev = cur
	w.ok = true
	return p
}

// rate is the per-second delta, clamped at zero so a counter reset (restart)
// never yields a huge negative rate.
func rate(cur, prev uint64, dt float64) float64 {
	if cur < prev {
		return 0
	}
	return float64(cur-prev) / dt
}
