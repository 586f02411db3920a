package metrics

import "encoding/json"

// Payload is the wire format served at /metrics and consumed by scaptop: a
// registry snapshot augmented with windowed rates. It marshals with
// encoding/json; ParsePayload is the inverse.
type Payload struct {
	TimeUnixNano  int64            `json:"time_unix_nano"`
	WindowSeconds float64          `json:"window_seconds"`
	Cores         int              `json:"cores"`
	Counters      []CounterPayload `json:"counters"`
	Gauges        []GaugeSnap      `json:"gauges"`
	Histograms    []HistogramSnap  `json:"histograms"`
	// Events is a view of the flight recorder (/debug/flight): its
	// edge-triggered overload kinds under their /metrics names.
	Events []Event `json:"events"`
	// Drops is the drop-attribution table: every counter registered with
	// Family "drops", one row per cause, duplicated out of Counters so
	// consumers can render the table without knowing the cause set.
	Drops []CounterPayload `json:"drops,omitempty"`
}

// Event is one overload occurrence in the /metrics events array. Value and
// Dur are kind-specific (see eventViews).
type Event struct {
	KindName     string `json:"kind"`
	TimeUnixNano int64  `json:"time_unix_nano"`
	Core         int    `json:"core"`
	Value        int64  `json:"value,omitempty"`
	Dur          int64  `json:"dur_ns,omitempty"`
}

// maxEvents bounds the events array: enough to hold a burst of overload
// transitions between scrapes.
const maxEvents = 256

// Which flight-record field fills an Event field: an index into
// {0, Value, Aux}.
const (
	fieldNone = iota
	fieldValue
	fieldAux
)

// eventViews is the events array's whole definition: the edge-triggered
// flight kinds it shows, under which wire name, and which record field feeds
// the event's value and duration. Every other flight kind is left out.
var eventViews = map[FlightKind]struct {
	name       string
	value, dur int
}{
	FlightPPLEnter:       {"ppl_enter", fieldValue, fieldNone},           // usage per-mille
	FlightPPLExit:        {"ppl_exit", fieldNone, fieldValue},            // episode length, wall ns
	FlightNICRingFull:    {"ring_full", fieldNone, fieldNone},            // core = queue
	FlightNICRingRecover: {"ring_full_end", fieldValue, fieldAux},        // frames dropped, episode length in virtual ns
	FlightRingOverflow:   {"event_ring_overflow", fieldValue, fieldNone}, // events lost
	FlightFDIRInstall:    {"fdir_install", fieldValue, fieldNone},        // stream ID, 0 = sketch-owned
	FlightFDIRRemove:     {"fdir_remove", fieldValue, fieldNone},
}

// eventsView derives the events array from flight records (oldest first, as
// FlightRecorder.Snapshot returns them): the newest maxEvents records of the
// kinds in eventViews, oldest first. Never nil, so the array marshals as [].
func eventsView(recs []FlightRecord) []Event {
	out := []Event{}
	for i := range recs {
		r := &recs[i]
		if v, ok := eventViews[r.Kind]; ok {
			field := [...]int64{fieldNone: 0, fieldValue: r.Value, fieldAux: r.Aux}
			out = append(out, Event{
				KindName:     v.name,
				TimeUnixNano: r.TimeUnixNano,
				Core:         r.Core,
				Value:        field[v.value],
				Dur:          field[v.dur],
			})
		}
	}
	if len(out) > maxEvents {
		out = out[len(out)-maxEvents:]
	}
	return out
}

// CounterPayload is one counter's snapshot plus its windowed per-second rate
// (and the per-core rates for per-core counters). Rates are zero on the
// first collection of a window.
type CounterPayload struct {
	CounterSnap
	Rate        float64   `json:"rate"`
	PerCoreRate []float64 `json:"per_core_rate,omitempty"`
}

// Counter returns the named counter in the payload, or nil when absent.
func (p *Payload) Counter(name string) *CounterPayload {
	for i := range p.Counters {
		if p.Counters[i].Name == name {
			return &p.Counters[i]
		}
	}
	return nil
}

// Histogram returns the named histogram in the payload, or nil when absent.
func (p *Payload) Histogram(name string) *HistogramSnap {
	for i := range p.Histograms {
		if p.Histograms[i].Name == name {
			return &p.Histograms[i]
		}
	}
	return nil
}

// Gauge returns the named gauge in the payload, or nil when absent.
func (p *Payload) Gauge(name string) *GaugeSnap {
	for i := range p.Gauges {
		if p.Gauges[i].Name == name {
			return &p.Gauges[i]
		}
	}
	return nil
}

// ParsePayload decodes a /metrics response body.
func ParsePayload(b []byte) (*Payload, error) {
	var p Payload
	if err := json.Unmarshal(b, &p); err != nil {
		return nil, err
	}
	return &p, nil
}
