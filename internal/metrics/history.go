package metrics

import (
	"sync"
	"time"
)

// History is a bounded in-process ring of periodic registry snapshots in
// compact form: per tick it keeps every counter's total and windowed rate,
// every gauge, and the p50/p99 of every histogram — enough for scaptop
// sparklines and for replaying a ctlplane episode against the metric
// trajectory that caused it, without retaining per-core breakdowns or full
// bucket vectors. Memory is bounded by depth regardless of uptime.
type History struct {
	reg      *Registry
	win      *Window
	interval time.Duration
	depth    int

	mu    sync.Mutex
	ring  []HistoryPoint
	next  int
	count int

	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// HistoryCounter is one counter's compact history sample.
type HistoryCounter struct {
	Name  string  `json:"name"`
	Total uint64  `json:"total"`
	Rate  float64 `json:"rate"`
}

// HistoryQuantiles is one histogram's compact history sample.
type HistoryQuantiles struct {
	Name  string  `json:"name"`
	Count uint64  `json:"count"`
	P50   float64 `json:"p50"`
	P99   float64 `json:"p99"`
}

// HistoryPoint is one periodic sample of the whole registry.
type HistoryPoint struct {
	TimeUnixNano  int64              `json:"time_unix_nano"`
	WindowSeconds float64            `json:"window_seconds"`
	Counters      []HistoryCounter   `json:"counters"`
	Gauges        []GaugeSnap        `json:"gauges"`
	Quantiles     []HistoryQuantiles `json:"quantiles,omitempty"`
}

// Default history cadence: one sample per second, three minutes retained —
// enough for 60-sample sparklines at any poll rate and for episode replay.
const (
	DefaultHistoryInterval = time.Second
	DefaultHistoryDepth    = 180
)

// NewHistory builds a history ring over reg. interval <= 0 and depth <= 0
// select the defaults. The ring has its own Window, so its rates are
// windowed over the history cadence, independent of /metrics pollers.
func NewHistory(reg *Registry, interval time.Duration, depth int) *History {
	if interval <= 0 {
		interval = DefaultHistoryInterval
	}
	if depth <= 0 {
		depth = DefaultHistoryDepth
	}
	return &History{
		reg:      reg,
		win:      NewWindow(reg),
		interval: interval,
		depth:    depth,
		ring:     make([]HistoryPoint, depth),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// Start launches the sampling goroutine. Call Stop to halt it; Start is
// idempotent per History (a second call panics on the closed channel model,
// so call it once).
func (h *History) Start() {
	go h.run()
}

//scap:goroutine history
func (h *History) run() {
	defer close(h.done)
	t := time.NewTicker(h.interval)
	defer t.Stop()
	for {
		select {
		case <-h.stop:
			return
		case <-t.C:
			h.Tick()
		}
	}
}

// Stop halts the sampling goroutine and waits for it to exit.
func (h *History) Stop() {
	h.once.Do(func() { close(h.stop) })
	<-h.done
}

// Tick takes one sample immediately. The ticker goroutine calls it each
// interval; tests call it directly for deterministic histories.
func (h *History) Tick() {
	p := h.win.collectRates()
	pt := HistoryPoint{
		TimeUnixNano:  p.TimeUnixNano,
		WindowSeconds: p.WindowSeconds,
		Gauges:        p.Gauges,
	}
	for i := range p.Counters {
		c := &p.Counters[i]
		pt.Counters = append(pt.Counters, HistoryCounter{
			Name: c.Name, Total: c.Total, Rate: c.Rate,
		})
	}
	for i := range p.Histograms {
		hs := &p.Histograms[i]
		pt.Quantiles = append(pt.Quantiles, HistoryQuantiles{
			Name:  hs.Name,
			Count: hs.Count,
			P50:   QuantileFromSnap(*hs, 0.50),
			P99:   QuantileFromSnap(*hs, 0.99),
		})
	}
	h.mu.Lock()
	h.ring[h.next] = pt
	h.next = (h.next + 1) % h.depth
	if h.count < h.depth {
		h.count++
	}
	h.mu.Unlock()
}

// Points returns the retained samples, oldest first.
func (h *History) Points() []HistoryPoint {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]HistoryPoint, 0, h.count)
	start := h.next - h.count
	if start < 0 {
		start += h.depth
	}
	for i := 0; i < h.count; i++ {
		out = append(out, h.ring[(start+i)%h.depth])
	}
	return out
}

// HistoryDump is the /debug/history JSON wire format.
type HistoryDump struct {
	TimeUnixNano    int64          `json:"time_unix_nano"`
	IntervalSeconds float64        `json:"interval_seconds"`
	Depth           int            `json:"depth"`
	Points          []HistoryPoint `json:"points"`
}

// Dump packages the retained samples for serving.
func (h *History) Dump() HistoryDump {
	return HistoryDump{
		TimeUnixNano:    h.reg.now(),
		IntervalSeconds: h.interval.Seconds(),
		Depth:           h.depth,
		Points:          h.Points(),
	}
}
