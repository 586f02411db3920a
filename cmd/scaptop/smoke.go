package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"scap"
	"scap/internal/ctlplane"
	"scap/internal/metrics"
	"scap/internal/streamscope"
	"scap/internal/trace"
)

// smokeCase is one CI end-to-end check (make <name>-smoke): replay a
// synthetic trace through a real socket with Serve enabled, then have check
// scrape the debug server over HTTP and return a one-line summary (plus any
// rendered view) or the first violated expectation.
type smokeCase struct {
	cfg    scap.Config
	cutoff int64              // stream cutoff, 0 = none
	data   func(*scap.Stream) // data callback, nil = discard
	// Trace shape (trace.ConcurrentStreamsWorkload, 1460-byte segments).
	seed                    int64
	flows, concurrent, pkts int
	check                   func(addr string) (string, error)
}

var smokeCases = map[string]smokeCase{
	"serve": {
		cfg:  scap.Config{Queues: 2, MemorySize: 64 << 20},
		seed: 1, flows: 200, concurrent: 16, pkts: 40,
		check: checkServe,
	},
	// Most generated flows exceed the cutoff, so the engines are guaranteed
	// to emit cutoff flight records.
	"flight": {
		cfg:    scap.Config{Queues: 2, MemorySize: 64 << 20},
		cutoff: 512,
		seed:   2, flows: 200, concurrent: 16, pkts: 40,
		check: checkFlight,
	},
	// A deliberately tiny memory budget, a fast controller, and slow
	// consumers — each data callback holds its chunk (and arena block) for a
	// while — so memory pressure builds for real.
	"ctlplane": {
		cfg: scap.Config{
			Queues:     2,
			MemorySize: 2 << 20,
			Sketch:     scap.SketchConfig{Enabled: true},
			Control: scap.ControlConfig{
				Enabled:       true,
				Interval:      2 * time.Millisecond,
				EnterFraction: 0.5,
				ExitFraction:  0.3,
				Cooldown:      10 * time.Millisecond,
				HoldTicks:     2,
				CutoffStart:   64 << 10,
				CutoffFloor:   16 << 10,
			},
		},
		data: func(*scap.Stream) { time.Sleep(200 * time.Microsecond) },
		seed: 3, flows: 400, concurrent: 64, pkts: 60,
		check: checkCtlplane,
	},
	// The sampler is effectively off (a huge stride), so every journal that
	// appears must have been promoted by an anomaly — here the cutoff most
	// generated flows exceed.
	"streams": {
		cfg: scap.Config{
			Queues:     2,
			MemorySize: 64 << 20,
			Streams:    scap.StreamsConfig{SampleEvery: streamsSmokeStride},
			History:    scap.HistoryConfig{Interval: 20 * time.Millisecond},
		},
		cutoff: 512,
		seed:   4, flows: 200, concurrent: 16, pkts: 40,
		check: checkStreams,
	},
}

const streamsSmokeStride = 1 << 20

// runSmoke runs the named smoke case.
func runSmoke(name string) error {
	c, ok := smokeCases[name]
	if !ok {
		return fmt.Errorf("unknown smoke case (want serve, flight, ctlplane or streams)")
	}
	h, err := scap.Create(c.cfg)
	if err != nil {
		return err
	}
	if c.cutoff > 0 {
		if err := h.SetCutoff(c.cutoff); err != nil {
			return err
		}
	}
	data := c.data
	if data == nil {
		data = func(*scap.Stream) {}
	}
	h.DispatchData(data)
	if err := h.StartCapture(); err != nil {
		return err
	}
	srv, err := h.Serve("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	gen := trace.ConcurrentStreamsWorkload(c.seed, c.flows, c.concurrent, c.pkts, 1460)
	if err := h.ReplaySource(gen, 1e9); err != nil {
		return err
	}
	report, err := c.check(srv.Addr())
	if err != nil {
		return err
	}
	if err := h.Close(); err != nil {
		return err
	}
	fmt.Printf("%s-smoke OK: %s", name, report)
	return nil
}

// pollJSON scrapes path until done accepts the decoded body or two seconds
// pass, and returns the last body: the controller and the history ring run on
// the wall clock and need a few intervals to observe the end of a replay.
func pollJSON[T any](addr, path string, done func(*T) bool) (*T, error) {
	deadline := time.Now().Add(2 * time.Second)
	for {
		v, err := getJSON[T](addr, path)
		if err != nil || done(v) || time.Now().After(deadline) {
			return v, err
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// checkServe requires nonzero per-core packets_total in /metrics.
func checkServe(addr string) (string, error) {
	p, err := getJSON[metrics.Payload](addr, "/metrics")
	if err != nil {
		return "", err
	}
	pk := p.Counter("packets_total")
	if pk == nil || pk.Total == 0 {
		return "", fmt.Errorf("packets_total missing or zero in /metrics payload")
	}
	if len(pk.PerCore) != 2 {
		return "", fmt.Errorf("packets_total per-core = %v, want 2 cores", pk.PerCore)
	}
	return fmt.Sprintf("packets_total=%d per-core=%v frames=%d\n%s",
		pk.Total, pk.PerCore, p.Counter("nic_frames_total").Total, render(p)), nil
}

// checkFlight requires /debug/flight to return at least one record and a
// valid Chrome trace-event export of the same records.
func checkFlight(addr string) (string, error) {
	dump, err := getJSON[metrics.FlightDump](addr, "/debug/flight")
	if err != nil {
		return "", err
	}
	if len(dump.Records) == 0 || dump.Total == 0 {
		return "", fmt.Errorf("no flight records after cutoff-heavy replay: total=%d", dump.Total)
	}
	tr, err := getJSON[metrics.ChromeTrace](addr, "/debug/flight?format=chrome")
	if err != nil {
		return "", err
	}
	if tr.DisplayTimeUnit != "ms" || len(tr.TraceEvents) != len(dump.Records) {
		return "", fmt.Errorf("chrome trace shape: unit=%q events=%d records=%d",
			tr.DisplayTimeUnit, len(tr.TraceEvents), len(dump.Records))
	}
	for _, ev := range tr.TraceEvents {
		if ev.Name == "" || ev.Cat != "flight" || (ev.Ph != "i" && ev.Ph != "X") || ev.TS < 0 {
			return "", fmt.Errorf("malformed trace event: %+v", ev)
		}
	}
	return fmt.Sprintf("records=%d (total %d), chrome events=%d\n",
		len(dump.Records), dump.Total, len(tr.TraceEvents)), nil
}

// checkCtlplane requires /debug/ctlplane to show the controller reacted to
// the overload (a recorded tighten decision) and /debug/flight to carry the
// matching ctl_* records — the telemetry→decision→actuation loop end to end.
func checkCtlplane(addr string) (string, error) {
	cs, err := pollJSON(addr, "/debug/ctlplane", func(cs *ctlplane.Snapshot) bool { return len(cs.Decisions) > 0 })
	if err != nil {
		return "", err
	}
	if !cs.Enabled {
		return "", fmt.Errorf("/debug/ctlplane reports controller disabled")
	}
	if cs.Ticks == 0 {
		return "", fmt.Errorf("controller never ticked")
	}
	if len(cs.Decisions) == 0 {
		return "", fmt.Errorf("no control decisions after overload replay (mode=%s mem=%.2f arena=%.2f)",
			cs.Mode, cs.MemFraction, cs.ArenaFraction)
	}
	var tightened bool
	for _, d := range cs.Decisions {
		if d.Action == "tighten" {
			tightened = true
		}
	}
	if !tightened {
		return "", fmt.Errorf("controller decided %d times but never tightened: %+v", len(cs.Decisions), cs.Decisions)
	}

	dump, err := getJSON[metrics.FlightDump](addr, "/debug/flight")
	if err != nil {
		return "", err
	}
	var ctlRecords int
	for _, r := range dump.Records {
		if strings.HasPrefix(r.KindName, "ctl_") {
			ctlRecords++
		}
	}
	if ctlRecords == 0 {
		return "", fmt.Errorf("no ctl_* flight records among %d records", len(dump.Records))
	}
	return fmt.Sprintf("decisions=%d ctl flight records=%d mode=%s\n%s",
		len(cs.Decisions), ctlRecords, cs.Mode, renderCtlplane(cs)), nil
}

// checkStreams requires /debug/streams to carry a cutoff-promoted journal
// (the anomaly-promotion invariant), the chrome export to carry one named
// track per journal, and /debug/history to accumulate points for the
// sparklines. When SCAP_STREAMS_TRACE_OUT names a file, the Perfetto-loadable
// chrome export is written there (the CI artifact).
func checkStreams(addr string) (string, error) {
	sd, err := getJSON[streamscope.Dump](addr, "/debug/streams")
	if err != nil {
		return "", err
	}
	if len(sd.Journals) == 0 || sd.Anomalies == 0 {
		return "", fmt.Errorf("no anomaly-promoted journals after cutoff-heavy replay: %d journals, %d anomalies",
			len(sd.Journals), sd.Anomalies)
	}
	var cutoffJournals int
	for i := range sd.Journals {
		js := &sd.Journals[i]
		if js.Sampled {
			return "", fmt.Errorf("journal %s claims sampler origin under a 1-in-%d stride", js.Key, streamsSmokeStride)
		}
		for _, a := range js.Anomalies {
			if a == "cutoff" {
				cutoffJournals++
				break
			}
		}
	}
	if cutoffJournals == 0 {
		return "", fmt.Errorf("no cutoff-promoted journal among %d journals", len(sd.Journals))
	}

	body, err := fetchBody(addr, "/debug/streams?format=chrome")
	if err != nil {
		return "", err
	}
	var tr metrics.ChromeTrace
	if err := json.Unmarshal(body, &tr); err != nil {
		return "", fmt.Errorf("parse chrome streams trace: %v", err)
	}
	var tracks, events int
	for _, ev := range tr.TraceEvents {
		switch {
		case ev.Ph == "M" && ev.Name == "thread_name":
			tracks++
			if name, _ := ev.Args["name"].(string); !strings.HasPrefix(name, "stream ") {
				return "", fmt.Errorf("track name %q lacks stream prefix", name)
			}
		case ev.Ph == "i" || ev.Ph == "X":
			events++
			if ev.TS < 0 {
				return "", fmt.Errorf("negative trace timestamp: %+v", ev)
			}
		}
	}
	if tracks != len(sd.Journals) || events == 0 {
		return "", fmt.Errorf("chrome export shape: %d named tracks (want %d), %d events",
			tracks, len(sd.Journals), events)
	}
	if out := os.Getenv("SCAP_STREAMS_TRACE_OUT"); out != "" {
		if err := os.WriteFile(out, body, 0o644); err != nil {
			return "", fmt.Errorf("write trace artifact: %v", err)
		}
		fmt.Printf("streams-smoke: wrote chrome trace artifact to %s (%d bytes)\n", out, len(body))
	}

	hd, err := pollJSON(addr, "/debug/history", func(hd *metrics.HistoryDump) bool { return len(hd.Points) >= 2 })
	if err != nil {
		return "", err
	}
	if len(hd.Points) < 2 {
		return "", fmt.Errorf("history ring never accumulated points")
	}
	return fmt.Sprintf("journals=%d (cutoff-promoted %d), chrome tracks=%d events=%d, history points=%d\n%s%s",
		len(sd.Journals), cutoffJournals, tracks, events, len(hd.Points), renderStreams(sd), renderHistory(hd)), nil
}
