package streamscope

import (
	"math"

	"scap/internal/metrics"
)

// ChromeTrace converts a set of journal snapshots into a Chrome trace with
// one named track (thread) per journal, so a /debug/streams?format=chrome
// dump opens in Perfetto or chrome://tracing with each stream's lifecycle on
// its own lane. A chunk flush carries the chunk's age and spans its whole
// residency, ending at the flush. Timestamps are rebased to the earliest
// event (or span start) so the trace starts at zero regardless of the capture
// clock's epoch.
func ChromeTrace(snaps []JournalSnap) metrics.ChromeTrace {
	span := func(ev JournalEvent) int64 {
		if ev.Kind == EvChunkFlush {
			return max(ev.B, 0)
		}
		return 0
	}
	tr := metrics.NewChromeTrace()
	base := int64(math.MaxInt64)
	for _, js := range snaps {
		for _, ev := range js.Events {
			base = min(base, ev.TimeUnixNano-span(ev))
		}
	}
	for i, js := range snaps {
		tid := i + 1
		name := "stream " + js.Key
		if js.AnomalyMask != 0 {
			name += " [anomaly]"
		}
		tr.TraceEvents = append(tr.TraceEvents, metrics.ChromeTraceEvent{
			Name: "thread_name",
			Ph:   "M",
			TID:  tid,
			Args: map[string]any{"name": name},
		})
		for _, ev := range js.Events {
			tr.Add(ev.KindName, "stream", tid, ev.TimeUnixNano-base, span(ev), map[string]any{
				"a":         ev.A,
				"b":         ev.B,
				"seq":       int64(ev.Seq),
				"stream_id": int64(js.StreamID),
			})
		}
	}
	return tr
}
