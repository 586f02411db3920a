package metrics

import "time"

// ChromeTraceEvent is one event of the Chrome trace-event format
// (chrome://tracing, Perfetto). Timestamps and durations are microseconds.
type ChromeTraceEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat"`
	Ph    string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// ChromeTrace is the JSON-object form of the trace-event format. It is the
// one exporter behind /debug/flight?format=chrome and
// /debug/streams?format=chrome.
type ChromeTrace struct {
	TraceEvents     []ChromeTraceEvent `json:"traceEvents"`
	DisplayTimeUnit string             `json:"displayTimeUnit"`
}

// NewChromeTrace returns an empty trace. TraceEvents is non-nil because
// Perfetto rejects a missing traceEvents array.
func NewChromeTrace() ChromeTrace {
	return ChromeTrace{DisplayTimeUnit: "ms", TraceEvents: []ChromeTraceEvent{}}
}

// Add appends one event on track tid at ts nanoseconds past the trace's base.
// An event with span > 0 ended at ts after lasting span nanoseconds and
// renders as a complete ("X") event over that interval (clamped to the trace
// start); any other event is a thread-scoped instant ("i").
func (t *ChromeTrace) Add(name, cat string, tid int, ts, span int64, args map[string]any) {
	usec := func(ns int64) float64 { return float64(ns) / float64(time.Microsecond) }
	ev := ChromeTraceEvent{Name: name, Cat: cat, TID: tid, Args: args}
	if span > 0 {
		ev.Ph = "X"
		ev.TS = usec(max(ts-span, 0))
		ev.Dur = usec(span)
	} else {
		ev.Ph = "i"
		ev.Scope = "t"
		ev.TS = usec(ts)
	}
	t.TraceEvents = append(t.TraceEvents, ev)
}
