package scap

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"scap/internal/metrics"
	"scap/internal/streamscope"
)

func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestServeMetricsEndpoint(t *testing.T) {
	h, err := Create(Config{Queues: 2})
	if err != nil {
		t.Fatal(err)
	}
	h.DispatchData(func(sd *Stream) {})
	if err := h.StartCapture(); err != nil {
		t.Fatal(err)
	}
	srv, err := h.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	if err := h.ReplaySource(smallGen(11, 60), 1e9); err != nil {
		t.Fatal(err)
	}

	body := getBody(t, "http://"+srv.Addr()+"/metrics")
	p, err := metrics.ParsePayload(body)
	if err != nil {
		t.Fatalf("parse /metrics: %v\n%s", err, body)
	}
	if p.Cores != 2 {
		t.Fatalf("cores = %d, want 2", p.Cores)
	}
	pk := p.Counter("packets_total")
	if pk == nil || pk.Total == 0 {
		t.Fatalf("packets_total missing or zero: %+v", pk)
	}
	if len(pk.PerCore) != 2 || pk.PerCore[0]+pk.PerCore[1] != pk.Total {
		t.Fatalf("per-core %v does not sum to total %d", pk.PerCore, pk.Total)
	}
	if p.Counter("nic_frames_total") == nil || p.Counter("mem_admitted_total") == nil {
		t.Fatal("NIC/mem func counters missing from payload")
	}
	if p.Gauge("memory_size_bytes") == nil {
		t.Fatal("memory_size_bytes gauge missing")
	}
	var hasChunkHist bool
	for _, hs := range p.Histograms {
		if hs.Name == "chunk_bytes" && hs.Count > 0 {
			hasChunkHist = true
		}
	}
	if !hasChunkHist {
		t.Fatal("chunk_bytes histogram missing or empty")
	}

	// The pprof and expvar endpoints are wired in.
	if b := getBody(t, "http://"+srv.Addr()+"/debug/pprof/cmdline"); len(b) == 0 {
		t.Fatal("pprof cmdline empty")
	}
	if b := getBody(t, "http://"+srv.Addr()+"/debug/vars"); len(b) == 0 {
		t.Fatal("expvar payload empty")
	}

	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	// Totals stay scrapeable after Close (the frozen-stats contract extends
	// to the server).
	p2, err := metrics.ParsePayload(getBody(t, "http://"+srv.Addr()+"/metrics"))
	if err != nil {
		t.Fatal(err)
	}
	if got := p2.Counter("packets_total"); got == nil || got.Total < pk.Total {
		t.Fatalf("post-Close packets_total = %+v, want >= %d", got, pk.Total)
	}
}

// TestServeSketchEndpoint: /debug/sketch returns one published snapshot per
// core once the sketch front-end has seen traffic (snapshots publish from
// the engines' timer path, so the scrape polls briefly).
func TestServeSketchEndpoint(t *testing.T) {
	h, err := Create(Config{Queues: 2, Sketch: SketchConfig{Enabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.SetCutoff(1000); err != nil {
		t.Fatal(err)
	}
	h.DispatchData(func(sd *Stream) {})
	if err := h.StartCapture(); err != nil {
		t.Fatal(err)
	}
	srv, err := h.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := h.ReplaySource(smallGen(13, 80), 1e9); err != nil {
		t.Fatal(err)
	}

	type snap struct {
		ObservedPkts uint64 `json:"observed_pkts"`
	}
	var snaps []*snap
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := json.Unmarshal(getBody(t, "http://"+srv.Addr()+"/debug/sketch"), &snaps); err != nil {
			t.Fatalf("parse /debug/sketch: %v", err)
		}
		total := uint64(0)
		for _, s := range snaps {
			if s != nil {
				total += s.ObservedPkts
			}
		}
		if len(snaps) == 2 && snaps[0] != nil && snaps[1] != nil && total > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sketch snapshots never published: %+v", snaps)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestServeFlightEndpoint(t *testing.T) {
	h, err := Create(Config{Queues: 2})
	if err != nil {
		t.Fatal(err)
	}
	// A low cutoff makes most generated flows hit their cutoff, which emits
	// FlightCutoff (and FDIR install) records deterministically.
	if err := h.SetCutoff(512); err != nil {
		t.Fatal(err)
	}
	h.DispatchData(func(sd *Stream) {})
	if err := h.StartCapture(); err != nil {
		t.Fatal(err)
	}
	srv, err := h.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer h.Close()

	if err := h.ReplaySource(smallGen(13, 50), 1e9); err != nil {
		t.Fatal(err)
	}

	// ReplaySource returns once the frames are handed to the kernel
	// goroutines; give them a moment to reach the first cutoff.
	var dump metrics.FlightDump
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		dump = metrics.FlightDump{}
		if err := json.Unmarshal(getBody(t, "http://"+srv.Addr()+"/debug/flight"), &dump); err != nil {
			t.Fatalf("parse /debug/flight: %v", err)
		}
		if len(dump.Records) > 0 || time.Now().After(deadline) {
			break
		}
	}
	if dump.Cores != 2 || dump.Capacity == 0 {
		t.Fatalf("dump header = %+v", dump)
	}
	if len(dump.Records) == 0 || dump.Total == 0 {
		t.Fatalf("no flight records after cutoff-heavy replay: %+v", dump)
	}
	var sawCutoff bool
	for i, r := range dump.Records {
		if r.KindName == "cutoff" {
			sawCutoff = true
		}
		if i > 0 && r.TimeUnixNano < dump.Records[i-1].TimeUnixNano {
			t.Fatal("records not ordered oldest first")
		}
	}
	if !sawCutoff {
		t.Fatalf("expected cutoff records, got %+v", dump.Records)
	}

	var tr metrics.ChromeTrace
	if err := json.Unmarshal(getBody(t, "http://"+srv.Addr()+"/debug/flight?format=chrome"), &tr); err != nil {
		t.Fatalf("parse chrome trace: %v", err)
	}
	if len(tr.TraceEvents) == 0 || tr.DisplayTimeUnit != "ms" {
		t.Fatalf("chrome trace = %+v", tr)
	}
	for _, ev := range tr.TraceEvents {
		if ev.Cat != "flight" || (ev.Ph != "i" && ev.Ph != "X") || ev.TS < 0 {
			t.Fatalf("malformed trace event: %+v", ev)
		}
	}

	// The drop-attribution table is present in /metrics and includes the
	// cutoff cause with a nonzero count.
	p, err := metrics.ParsePayload(getBody(t, "http://"+srv.Addr()+"/metrics"))
	if err != nil {
		t.Fatal(err)
	}
	var cutoffDrops *metrics.CounterPayload
	for i := range p.Drops {
		if p.Drops[i].Cause == "cutoff" {
			cutoffDrops = &p.Drops[i]
		}
	}
	if cutoffDrops == nil || cutoffDrops.Total == 0 {
		t.Fatalf("drops table missing a nonzero cutoff row: %+v", p.Drops)
	}
}

// TestDebugServerGracefulClose verifies Close drains in-flight requests
// instead of severing them: a /debug/pprof/trace request that streams for a
// full second must complete its body while Close is underway.
func TestDebugServerGracefulClose(t *testing.T) {
	h, err := Create(Config{Queues: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.StartCapture(); err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	srv, err := h.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	type result struct {
		n   int
		err error
	}
	got := make(chan result, 1)
	started := make(chan struct{})
	go func() {
		resp, err := http.Get("http://" + srv.Addr() + "/debug/pprof/trace?seconds=1")
		if err != nil {
			close(started)
			got <- result{0, err}
			return
		}
		close(started) // headers received: the request is in flight
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		got <- result{len(b), err}
	}()
	<-started

	if err := srv.Close(); err != nil {
		t.Fatalf("graceful Close failed: %v", err)
	}
	r := <-got
	if r.err != nil {
		t.Fatalf("in-flight request was severed by Close: %v", r.err)
	}
	if r.n == 0 {
		t.Fatal("trace body empty")
	}
	// The listener is really gone.
	if _, err := http.Get("http://" + srv.Addr() + "/metrics"); err == nil {
		t.Fatal("server still accepting requests after Close")
	}
}

func TestGetStatsFrozenAfterClose(t *testing.T) {
	h, err := Create(Config{Queues: 2})
	if err != nil {
		t.Fatal(err)
	}
	h.DispatchTermination(func(sd *Stream) {})
	runSocket(t, h, smallGen(12, 40))

	st1, err := h.GetStats()
	if err != nil {
		t.Fatal(err)
	}
	if st1.Packets == 0 || st1.StreamsCreated == 0 {
		t.Fatalf("frozen stats empty: %+v", st1)
	}
	if st1.MemoryUsed != 0 {
		t.Fatalf("memory not fully released at close: %d", st1.MemoryUsed)
	}
	st2, err := h.GetStats()
	if err != nil {
		t.Fatal(err)
	}
	if st1 != st2 {
		t.Fatalf("post-Close snapshots differ:\n%+v\n%+v", st1, st2)
	}
}

// TestServeMethodsAndContentTypes sweeps every route: GET answers 200 with
// the right Content-Type, and anything else is 405 with an Allow header —
// every endpoint is a read-only snapshot.
func TestServeMethodsAndContentTypes(t *testing.T) {
	h, err := Create(Config{Queues: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.StartCapture(); err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	srv, err := h.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	cases := []struct {
		path   string
		wantCT string // Content-Type prefix
	}{
		{"/metrics", "application/json"},
		{"/metrics?format=prom", "application/openmetrics-text"},
		{"/debug/flight", "application/json"},
		{"/debug/flight?format=chrome", "application/json"},
		{"/debug/streams", "application/json"},
		{"/debug/streams?format=chrome", "application/json"},
		{"/debug/history", "application/json"},
		{"/debug/sketch", "application/json"},
		{"/debug/ctlplane", "application/json"},
		{"/debug/pprof/cmdline", "text/plain"},
		{"/debug/vars", "application/json"},
	}
	for _, tc := range cases {
		resp, err := http.Get(base + tc.path)
		if err != nil {
			t.Fatalf("GET %s: %v", tc.path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %s", tc.path, resp.Status)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, tc.wantCT) {
			t.Errorf("GET %s Content-Type = %q, want prefix %q", tc.path, ct, tc.wantCT)
		}
		if len(body) == 0 {
			t.Errorf("GET %s: empty body", tc.path)
		}

		resp, err = http.Post(base+tc.path, "text/plain", strings.NewReader("x"))
		if err != nil {
			t.Fatalf("POST %s: %v", tc.path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST %s = %s, want 405", tc.path, resp.Status)
		}
		if allow := resp.Header.Get("Allow"); !strings.Contains(allow, "GET") {
			t.Errorf("POST %s Allow = %q, want GET", tc.path, allow)
		}
	}
}

// TestServeStreamsEndpoint drives a cutoff-heavy replay with the sampler
// effectively off (a huge stride), so every journal present must have been
// promoted by an anomaly — the invariant that the interesting tail is never
// sampled away. The chrome export must carry one named track per journal.
func TestServeStreamsEndpoint(t *testing.T) {
	h, err := Create(Config{Queues: 2, Streams: StreamsConfig{SampleEvery: 1 << 20}})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.SetCutoff(512); err != nil {
		t.Fatal(err)
	}
	h.DispatchData(func(sd *Stream) {})
	if err := h.StartCapture(); err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	srv, err := h.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	if err := h.ReplaySource(smallGen(13, 50), 1e9); err != nil {
		t.Fatal(err)
	}

	// ReplaySource returns once the frames are handed to the kernel
	// goroutines, which may still be working through them: scrape both views
	// until they describe the same set of journals.
	var dump streamscope.Dump
	var tr metrics.ChromeTrace
	tracks := 0
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		dump, tr, tracks = streamscope.Dump{}, metrics.ChromeTrace{}, 0
		if err := json.Unmarshal(getBody(t, "http://"+srv.Addr()+"/debug/streams"), &dump); err != nil {
			t.Fatalf("parse /debug/streams: %v", err)
		}
		if err := json.Unmarshal(getBody(t, "http://"+srv.Addr()+"/debug/streams?format=chrome"), &tr); err != nil {
			t.Fatalf("parse chrome streams trace: %v", err)
		}
		for _, ev := range tr.TraceEvents {
			if ev.Ph == "M" && ev.Name == "thread_name" {
				tracks++
			}
		}
		if tracks == len(dump.Journals) && tracks > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("chrome export has %d named tracks, want %d", tracks, len(dump.Journals))
		}
	}
	if dump.Cores != 2 || dump.SampleEvery != 1<<20 {
		t.Fatalf("dump header = cores %d stride %d", dump.Cores, dump.SampleEvery)
	}
	if len(dump.Journals) == 0 || dump.Anomalies == 0 {
		t.Fatalf("no anomaly-promoted journals after cutoff-heavy replay: %+v", dump)
	}
	var cutoffJournal *streamscope.JournalSnap
	for i := range dump.Journals {
		js := &dump.Journals[i]
		if js.Sampled {
			t.Fatalf("journal claims sampler origin under a 1-in-%d stride: %+v", 1<<20, js)
		}
		for _, a := range js.Anomalies {
			if a == "cutoff" {
				cutoffJournal = js
			}
		}
	}
	if cutoffJournal == nil {
		t.Fatalf("no cutoff-promoted journal: %+v", dump.Journals)
	}
	if cutoffJournal.StreamID == 0 || cutoffJournal.Key == "" {
		t.Fatalf("cutoff journal identity empty: %+v", cutoffJournal)
	}
	var sawCutoffEvent bool
	for i, ev := range cutoffJournal.Events {
		if ev.KindName == "cutoff" {
			sawCutoffEvent = true
		}
		if i > 0 && ev.Seq <= cutoffJournal.Events[i-1].Seq {
			t.Fatal("journal events not in sequence order")
		}
	}
	if !sawCutoffEvent {
		t.Fatalf("cutoff journal has no cutoff event: %+v", cutoffJournal.Events)
	}

	for _, ev := range tr.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" {
			name, _ := ev.Args["name"].(string)
			if !strings.HasPrefix(name, "stream ") {
				t.Fatalf("track name %q lacks stream prefix", name)
			}
			if !strings.Contains(name, "[anomaly]") {
				t.Fatalf("anomaly-promoted track %q not marked", name)
			}
		}
		if ev.TS < 0 {
			t.Fatalf("negative trace timestamp: %+v", ev)
		}
	}

	// The stream-journal counters surface in /metrics.
	p, err := metrics.ParsePayload(getBody(t, "http://"+srv.Addr()+"/metrics"))
	if err != nil {
		t.Fatal(err)
	}
	if c := p.Counter("streams_anomaly_total"); c == nil || c.Total == 0 {
		t.Fatalf("streams_anomaly_total missing or zero: %+v", c)
	}
	if g := p.Gauge("streamscope_sample_every"); g == nil || g.Value != 1<<20 {
		t.Fatalf("streamscope_sample_every = %+v, want %d", g, 1<<20)
	}
}

// TestServeStreamsDisabled: Config.Streams.Disabled turns the endpoint into
// an {"enabled": false} stub.
func TestServeStreamsDisabled(t *testing.T) {
	h, err := Create(Config{Queues: 1, Streams: StreamsConfig{Disabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.StartCapture(); err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	srv, err := h.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var out map[string]bool
	if err := json.Unmarshal(getBody(t, "http://"+srv.Addr()+"/debug/streams"), &out); err != nil {
		t.Fatal(err)
	}
	if v, ok := out["enabled"]; !ok || v {
		t.Fatalf("disabled scope served %+v", out)
	}
}

// TestServeHistoryEndpoint: with a fast sampling cadence the history ring
// accumulates points carrying counter totals, rates, and gauges.
func TestServeHistoryEndpoint(t *testing.T) {
	h, err := Create(Config{Queues: 2, History: HistoryConfig{Interval: 10 * time.Millisecond, Depth: 32}})
	if err != nil {
		t.Fatal(err)
	}
	h.DispatchData(func(sd *Stream) {})
	if err := h.StartCapture(); err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	srv, err := h.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := h.ReplaySource(smallGen(11, 40), 1e9); err != nil {
		t.Fatal(err)
	}

	var dump metrics.HistoryDump
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := json.Unmarshal(getBody(t, "http://"+srv.Addr()+"/debug/history"), &dump); err != nil {
			t.Fatalf("parse /debug/history: %v", err)
		}
		if len(dump.Points) >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("history never accumulated points: %+v", dump)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if dump.Depth != 32 {
		t.Fatalf("depth = %d, want 32", dump.Depth)
	}
	last := dump.Points[len(dump.Points)-1]
	var pk *metrics.HistoryCounter
	for i := range last.Counters {
		if last.Counters[i].Name == "packets_total" {
			pk = &last.Counters[i]
		}
	}
	if pk == nil || pk.Total == 0 {
		t.Fatalf("history point lacks packets_total: %+v", last)
	}
	if len(last.Gauges) == 0 {
		t.Fatalf("history point lacks gauges: %+v", last)
	}
	for i := 1; i < len(dump.Points); i++ {
		if dump.Points[i].TimeUnixNano < dump.Points[i-1].TimeUnixNano {
			t.Fatal("history points not oldest first")
		}
	}
}

// TestServeExemplarSurfaces: after a replay the chunk-size histogram carries
// an exemplar whose stream ID surfaces both in the /metrics JSON payload and
// in the OpenMetrics exposition's exemplar syntax.
func TestServeExemplarSurfaces(t *testing.T) {
	h, err := Create(Config{Queues: 1})
	if err != nil {
		t.Fatal(err)
	}
	h.DispatchData(func(sd *Stream) {})
	if err := h.StartCapture(); err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	srv, err := h.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := h.ReplaySource(smallGen(17, 40), 1e9); err != nil {
		t.Fatal(err)
	}

	// ReplaySource returns once the frames are injected; chunk sizes are
	// observed when the worker delivers them, so wait for the first one.
	var chunk *metrics.HistogramSnap
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		p, err := metrics.ParsePayload(getBody(t, "http://"+srv.Addr()+"/metrics"))
		if err != nil {
			t.Fatal(err)
		}
		chunk = p.Histogram("chunk_bytes")
		if chunk != nil && chunk.Count > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("chunk_bytes histogram missing or empty")
		}
	}
	if chunk.Exemplar == nil || chunk.Exemplar.StreamID == 0 || chunk.Exemplar.Value == 0 {
		t.Fatalf("chunk_bytes exemplar = %+v, want nonzero stream ID", chunk.Exemplar)
	}

	prom := string(getBody(t, "http://"+srv.Addr()+"/metrics?format=prom"))
	if !strings.HasSuffix(prom, "# EOF\n") {
		t.Fatalf("prom exposition not EOF-terminated: ...%q", prom[max(0, len(prom)-40):])
	}
	if !strings.Contains(prom, "chunk_bytes_bucket{") {
		t.Fatal("prom exposition lacks chunk_bytes buckets")
	}
	if !strings.Contains(prom, `# {stream_id="`) {
		t.Fatal("prom exposition lacks an exemplar with a stream ID")
	}
}
