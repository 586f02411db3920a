package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"scap"
	"scap/internal/metrics"
)

// span is one traced interval. Spans form a tree through Parent: run →
// phase → pass → InjectBatch call; layer replays hang off the run. All
// spans are recorded by the harness, around its calls into the program.
type span struct {
	ID     int            `json:"id"`
	Parent int            `json:"parent"` // -1 for the run span
	Name   string         `json:"name"`
	Start  int64          `json:"start_ns"`
	End    int64          `json:"end_ns"`
	Args   map[string]any `json:"args,omitempty"`
}

// injectSpan is one InjectBatch call, kept compact because a traced run
// makes a few hundred thousand of them.
type injectSpan struct {
	pass       int32
	frames     int32
	start, end int64
}

// tracer keeps spans in memory and writes them out when the run ends.
type tracer struct {
	spans   []span
	open    []int // stack of open span IDs
	injects []injectSpan

	// passes maps the phase's passes, in injection order, to their span;
	// passEnd closes them in the same order as completions are observed.
	passes   []int
	nextDone int
	curPass  int32
	lastTot  [nShards]shardTotals

	// phaseInjectNS / phaseInjectFrames sum the InjectBatch calls of the
	// open phase.
	phaseInjectNS     int64
	phaseInjectFrames int64
}

type shardTotals struct{ events, bytes uint64 }

func newTracer() *tracer {
	return &tracer{injects: make([]injectSpan, 0, 1<<18), curPass: -1}
}

// add starts a span under the innermost open one.
func (t *tracer) add(name string) int {
	id := len(t.spans)
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: nowNS()})
	return id
}

// begin starts a span that later spans nest under, until end.
func (t *tracer) begin(name string) int {
	id := t.add(name)
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int, args map[string]any) {
	t.spans[id].End = nowNS()
	t.spans[id].Args = args
	for n := len(t.open); n > 0 && t.open[n-1] >= id; n-- {
		t.open = t.open[:n-1]
	}
}

// beginPhase opens a phase span and resets the per-phase pass bookkeeping.
func (t *tracer) beginPhase(name string, r *runner) int {
	t.passes, t.nextDone, t.curPass = t.passes[:0], 0, -1
	t.phaseInjectNS, t.phaseInjectFrames = 0, 0
	t.lastTot = r.shardTotals()
	return t.begin(name)
}

// passBegin opens the span of the pass about to be injected. Its end is
// the pass's completion stamp, which arrives while later passes are
// already being injected, so pass spans overlap their successors.
func (t *tracer) passBegin() {
	id := t.add("pass")
	t.passes = append(t.passes, id)
	t.curPass = int32(id)
}

// passEnd closes the oldest open pass at its completion stamp and records
// what each worker's callbacks handled since the previous completion.
func (t *tracer) passEnd(stamp int64, r *runner) {
	if t.nextDone >= len(t.passes) {
		return
	}
	s := &t.spans[t.passes[t.nextDone]]
	t.nextDone++
	s.End = stamp
	cur := r.shardTotals()
	var events, bytes []uint64
	for i := range cur {
		if d := cur[i].events - t.lastTot[i].events; d > 0 || cur[i].bytes > t.lastTot[i].bytes {
			events = append(events, d)
			bytes = append(bytes, cur[i].bytes-t.lastTot[i].bytes)
		}
	}
	t.lastTot = cur
	s.Args = map[string]any{"worker_events": events, "worker_bytes": bytes}
}

func (t *tracer) injected(start, end int64, frames int) {
	t.injects = append(t.injects, injectSpan{t.curPass, int32(frames), start, end})
	t.phaseInjectNS += end - start
	t.phaseInjectFrames += int64(frames)
}

func (r *runner) shardTotals() [nShards]shardTotals {
	var out [nShards]shardTotals
	for i := range r.shards {
		sh := &r.shards[i]
		out[i] = shardTotals{
			events: sh.created.Load() + sh.chunks.Load() + sh.terms.Load(),
			bytes:  sh.tcpBytes.Load() + sh.udpBytes.Load(),
		}
	}
	return out
}

// write stores the trace as one JSON document: the span tree, then the
// InjectBatch calls as [pass span id, frames, start_ns, end_ns] rows.
func (t *tracer) write(path string, meta map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	enc := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			panic(err) // spans hold only numbers, strings and slices of them
		}
		return b
	}
	fmt.Fprintf(w, "{\"meta\":%s,\n\"spans\":[\n", enc(meta))
	for i := range t.spans {
		sep := ","
		if i == len(t.spans)-1 {
			sep = ""
		}
		fmt.Fprintf(w, "%s%s\n", enc(&t.spans[i]), sep)
	}
	fmt.Fprint(w, "],\n\"inject_batch_columns\":[\"pass_span\",\"frames\",\"start_ns\",\"end_ns\"],\n\"inject_batch\":[\n")
	for i, in := range t.injects {
		sep := ","
		if i == len(t.injects)-1 {
			sep = ""
		}
		fmt.Fprintf(w, "[%d,%d,%d,%d]%s\n", in.pass, in.frames, in.start, in.end, sep)
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// scraper reads the program's own counters through its /metrics endpoint.
type scraper struct {
	srv    *scap.DebugServer
	client http.Client
}

func newScraper(h *scap.Handle) (*scraper, error) {
	srv, err := h.Serve("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("metrics endpoint: %w", err)
	}
	return &scraper{srv: srv, client: http.Client{Timeout: 5 * time.Second}}, nil
}

func (s *scraper) scrape() (*metrics.Payload, error) {
	resp, err := s.client.Get("http://" + s.srv.Addr() + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: %s", resp.Status)
	}
	return metrics.ParsePayload(body)
}

func (s *scraper) close() {
	s.client.CloseIdleConnections()
	_ = s.srv.Close()
}

// histDelta is histogram b minus histogram a: the observations made
// between two scrapes.
func histDelta(a, b *metrics.HistogramSnap) metrics.HistogramSnap {
	if b == nil {
		return metrics.HistogramSnap{}
	}
	d := *b
	if a == nil {
		return d
	}
	d.Count -= a.Count
	d.Sum -= a.Sum
	d.Buckets = append([]metrics.BucketSnap(nil), b.Buckets...)
	for i := range d.Buckets {
		if i < len(a.Buckets) && a.Buckets[i].Le == d.Buckets[i].Le {
			d.Buckets[i].Count -= a.Buckets[i].Count
		}
	}
	return d
}

func histMean(h metrics.HistogramSnap) float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// counterDelta is the growth of a named counter between two scrapes.
func counterDelta(a, b *metrics.Payload, name string) float64 {
	var va, vb uint64
	if c := a.Counter(name); c != nil {
		va = c.Total
	}
	if c := b.Counter(name); c != nil {
		vb = c.Total
	}
	return float64(vb - va)
}
