package scap

import (
	"context"
	"encoding/json"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"scap/internal/core"
	"scap/internal/ctlplane"
	"scap/internal/metrics"
	"scap/internal/sketch"
	"scap/internal/streamscope"
)

// DebugServer is the optional observability endpoint of one socket, started
// with Handle.Serve. It has no counterpart in the paper's API — it exposes
// the same counters scap_get_stats reads, but live, with per-core
// breakdowns, windowed rates, and the Go runtime's profiling endpoints.
type DebugServer struct {
	ln   net.Listener
	srv  *http.Server
	done chan struct{}
	// win and reg back the handler methods; net/http invokes those from its
	// per-connection goroutines, so they carry the debugserver role and may
	// touch capture state only through the any-goroutine-safe read paths.
	win *metrics.Window
	reg *metrics.Registry
	// engines is the per-core engine list captured at Serve time; the
	// sketch handler reads only their atomic snapshot pointers.
	engines []*core.Engine
	// ctl is the adaptive controller, nil when disabled; its handler reads
	// only the atomic snapshot pointer.
	ctl *ctlplane.Controller
	// scope holds the stream journals, nil when disabled; its handler uses
	// only the seqlock read protocol. hist is the metrics history ring, nil
	// when disabled; its handler reads under the ring's own mutex.
	scope *streamscope.Scope
	hist  *metrics.History
}

// allowGet gates a handler to read methods: everything on this server is a
// read-only snapshot, so anything but GET or HEAD is answered with 405 and
// an Allow header rather than silently treated as a read.
func allowGet(next http.HandlerFunc) http.HandlerFunc {
	return func(rw http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			rw.Header().Set("Allow", "GET, HEAD")
			http.Error(rw, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		next(rw, req)
	}
}

// writeJSON answers a request with v as indented JSON. An encode error means
// the client went away mid-response; there is no one left to report it to.
func writeJSON(rw http.ResponseWriter, v any) {
	rw.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(rw)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// handleMetrics serves /metrics: the registry as JSON with rates windowed
// since the previous scrape, or — with ?format=prom — as OpenMetrics text
// exposition (totals, per-core series, histogram buckets with exemplars).
//
//scap:goroutine debugserver per-request handler on net/http's connection goroutines
func (s *DebugServer) handleMetrics(rw http.ResponseWriter, req *http.Request) {
	if req.URL.Query().Get("format") == "prom" {
		rw.Header().Set("Content-Type", metrics.PromContentType)
		_ = metrics.WriteProm(rw, s.reg.Snapshot())
		return
	}
	writeJSON(rw, s.win.Collect())
}

// handleFlight serves /debug/flight: the flight recorder's records as plain
// or Chrome trace-event JSON.
//
//scap:goroutine debugserver per-request handler on net/http's connection goroutines
func (s *DebugServer) handleFlight(rw http.ResponseWriter, req *http.Request) {
	if req.URL.Query().Get("format") == "chrome" {
		writeJSON(rw, metrics.ChromeTraceFromRecords(s.reg.Flight().Snapshot()))
		return
	}
	writeJSON(rw, s.reg.Flight().Dump())
}

// handleStreams serves /debug/streams: the sampled and anomaly-promoted
// stream lifecycle journals as JSON (anomalous streams first), or — with
// ?format=chrome — as Chrome trace-event JSON with one named track per
// journaled stream, loadable in Perfetto. Serves {"enabled": false} when
// stream journaling is disabled.
//
//scap:goroutine debugserver per-request handler on net/http's connection goroutines
func (s *DebugServer) handleStreams(rw http.ResponseWriter, req *http.Request) {
	switch {
	case s.scope == nil:
		writeJSON(rw, map[string]bool{"enabled": false})
	case req.URL.Query().Get("format") == "chrome":
		writeJSON(rw, streamscope.ChromeTrace(s.scope.Snapshot()))
	default:
		writeJSON(rw, s.scope.DumpState())
	}
}

// handleHistory serves /debug/history: the bounded ring of periodic metrics
// snapshots (counter totals and rates, gauges, histogram quantiles), oldest
// first — the data behind scaptop's sparklines and ctlplane episode replay.
// Serves {"enabled": false} when the history ring is disabled.
//
//scap:goroutine debugserver per-request handler on net/http's connection goroutines
func (s *DebugServer) handleHistory(rw http.ResponseWriter, req *http.Request) {
	if s.hist == nil {
		writeJSON(rw, map[string]bool{"enabled": false})
		return
	}
	writeJSON(rw, s.hist.Dump())
}

// handleSketch serves /debug/sketch: each engine's most recently published
// sketch snapshot — observed totals, per-priority byte/packet breakdowns,
// and the tracked heavy-hitter flows with their FDIR state. Entries are null
// for cores without a sketch (front-end disabled).
//
//scap:goroutine debugserver per-request handler on net/http's connection goroutines
func (s *DebugServer) handleSketch(rw http.ResponseWriter, req *http.Request) {
	out := make([]*sketch.Snapshot, len(s.engines))
	for i, e := range s.engines {
		if sk := e.Sketch(); sk != nil {
			out[i] = sk.Snapshot()
		}
	}
	writeJSON(rw, out)
}

// handleCtlplane serves /debug/ctlplane: the adaptive controller's last
// published snapshot — mode, live pressure signals, the active cutoff clamp
// and FDIR budget, the installed watermark ladder, and the recent decision
// ring with its evidence. Serves {"enabled": false} when the controller is
// disabled.
//
//scap:goroutine debugserver per-request handler on net/http's connection goroutines
func (s *DebugServer) handleCtlplane(rw http.ResponseWriter, req *http.Request) {
	if s.ctl == nil {
		writeJSON(rw, &ctlplane.Snapshot{Enabled: false, Mode: "disabled", DynCutoff: -1, FDIRBudget: -1})
		return
	}
	writeJSON(rw, s.ctl.Snapshot())
}

// Serve starts a debug HTTP server for the socket on addr (host:port; use
// port 0 for an ephemeral port, then read Addr). It serves:
//
//   - /metrics — the metrics registry as JSON: every counter with its total
//     and per-core values, per-second rates windowed between scrapes,
//     gauges, histograms with exemplars, and the recent overload events
//     (PPL pressure episodes, ring-full episodes, FDIR churn — a view of
//     the flight recorder's records).
//     /metrics?format=prom returns the same registry as OpenMetrics text
//     exposition for Prometheus-compatible scrapers.
//   - /debug/flight — the flight recorder's per-core decision records as
//     JSON (oldest first); /debug/flight?format=chrome returns the same
//     records as Chrome trace-event JSON, loadable in chrome://tracing or
//     Perfetto (ui.perfetto.dev).
//   - /debug/streams — the sampled per-stream lifecycle journals: every
//     Nth stream plus every anomalous stream, each with its recent
//     lifecycle events (creation, first payload, chunk flushes, gaps,
//     overlaps, PPL drops, cutoff, close). /debug/streams?format=chrome
//     returns them as Chrome trace-event JSON with one named track per
//     stream. {"enabled": false} when Config.Streams.Disabled.
//   - /debug/history — the bounded ring of periodic metrics snapshots
//     (totals, rates, gauges, histogram p50/p99), oldest first.
//     {"enabled": false} when Config.History.Disabled.
//   - /debug/sketch — each core's sketch front-end snapshot (observed
//     totals, per-priority breakdowns, heavy-hitter flows). Call Serve
//     after StartCapture so the engines exist; entries are null when the
//     sketch is disabled.
//   - /debug/ctlplane — the adaptive overload controller's state: mode,
//     pressure signals, active cutoff clamp and FDIR budget, watermark
//     ladder, and the recent decisions with evidence. {"enabled": false}
//     when Config.Control is off.
//   - /debug/pprof/ — the standard net/http/pprof profiling endpoints.
//   - /debug/vars — expvar's process-wide variables.
//
// Every endpoint is a read-only snapshot: non-GET requests are answered
// with 405 Method Not Allowed.
//
// The rate window is shared by all scrapers of this server: each /metrics
// request reports rates since the previous request. Run one poller (e.g.
// cmd/scaptop) per server for meaningful rates. The server runs until
// Close; it does not stop when the Handle is closed, so totals remain
// scrapeable after capture ends.
func (h *Handle) Serve(addr string) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	w := metrics.NewWindow(h.reg)
	w.Collect() // prime: the first scrape then has a real window
	s := &DebugServer{
		ln:      ln,
		done:    make(chan struct{}),
		win:     w,
		reg:     h.reg,
		engines: append([]*core.Engine(nil), h.engines...),
		ctl:     h.ctl,
		scope:   h.scope,
		hist:    h.hist,
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", allowGet(s.handleMetrics))
	mux.HandleFunc("/debug/flight", allowGet(s.handleFlight))
	mux.HandleFunc("/debug/streams", allowGet(s.handleStreams))
	mux.HandleFunc("/debug/history", allowGet(s.handleHistory))
	mux.HandleFunc("/debug/sketch", allowGet(s.handleSketch))
	mux.HandleFunc("/debug/ctlplane", allowGet(s.handleCtlplane))
	mux.HandleFunc("/debug/pprof/", allowGet(pprof.Index))
	mux.HandleFunc("/debug/pprof/cmdline", allowGet(pprof.Cmdline))
	mux.HandleFunc("/debug/pprof/profile", allowGet(pprof.Profile))
	mux.HandleFunc("/debug/pprof/symbol", allowGet(pprof.Symbol))
	mux.HandleFunc("/debug/pprof/trace", allowGet(pprof.Trace))
	mux.HandleFunc("/debug/vars", allowGet(expvar.Handler().ServeHTTP))
	s.srv = &http.Server{Handler: mux}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln)
	}()
	return s, nil
}

// Addr returns the server's listen address (resolving port 0 to the bound
// port).
func (s *DebugServer) Addr() string { return s.ln.Addr().String() }

// closeGrace bounds how long Close waits for in-flight requests to finish
// before severing their connections.
const closeGrace = 2 * time.Second

// Close shuts the server down and waits for its goroutine. It first attempts
// a graceful Shutdown with a short deadline, so an in-flight /metrics scrape
// or flight dump completes its response body instead of being truncated
// mid-write; only if requests are still running at the deadline are their
// connections closed.
func (s *DebugServer) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), closeGrace)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if err != nil {
		// Deadline hit with requests still in flight: sever them.
		if cerr := s.srv.Close(); cerr != nil && err == context.DeadlineExceeded {
			err = cerr
		}
	}
	<-s.done
	return err
}
