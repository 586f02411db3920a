// Command scaptop is a terminal viewer for a running Scap socket's debug
// server (Handle.Serve): it polls /metrics and renders totals, per-core
// rates, memory pressure, and the recent overload events — top(1) for the
// capture path.
//
// Usage:
//
//	scaptop -addr 127.0.0.1:6060             # watch a live capture
//	scaptop -addr 127.0.0.1:6060 -plain -n 3 # three plain snapshots
//	scaptop -addr 127.0.0.1:6060 -json       # one raw /metrics payload, then exit
//	scaptop -smoke serve                     # self-contained end-to-end check of /metrics
//	scaptop -smoke flight                    # ... of the flight recorder
//	scaptop -smoke ctlplane                  # ... of the adaptive controller
//	scaptop -smoke streams                   # ... of the stream journals and history ring
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"scap/internal/ctlplane"
	"scap/internal/metrics"
	"scap/internal/streamscope"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:6060", "debug server address (Handle.Serve)")
		interval = flag.Duration("interval", time.Second, "poll interval")
		count    = flag.Int("n", 0, "number of polls (0 = until interrupted)")
		plain    = flag.Bool("plain", false, "append snapshots instead of redrawing the screen")
		jsonOnce = flag.Bool("json", false, "print one raw /metrics payload as JSON and exit")
		smoke    = flag.String("smoke", "", "run an in-process capture and verify one debug surface end to end: serve, flight, ctlplane or streams")
	)
	flag.Parse()

	if *smoke != "" {
		if err := runSmoke(*smoke); err != nil {
			fmt.Fprintf(os.Stderr, "scaptop -smoke %s: %v\n", *smoke, err)
			os.Exit(1)
		}
		return
	}
	if *jsonOnce {
		body, err := fetchBody(*addr, "/metrics")
		if err != nil {
			fmt.Fprintln(os.Stderr, "scaptop:", err)
			os.Exit(1)
		}
		os.Stdout.Write(body)
		return
	}

	for i := 0; *count == 0 || i < *count; i++ {
		if i > 0 {
			time.Sleep(*interval)
		}
		p, err := getJSON[metrics.Payload](*addr, "/metrics")
		if err != nil {
			fmt.Fprintln(os.Stderr, "scaptop:", err)
			os.Exit(1)
		}
		if !*plain {
			fmt.Print("\x1b[2J\x1b[H") // clear screen, home cursor
		}
		fmt.Print(render(p))
		// The controller line comes from its own endpoint; a server without
		// one (older binary) just renders nothing extra.
		if cs, err := getJSON[ctlplane.Snapshot](*addr, "/debug/ctlplane"); err == nil {
			fmt.Print(renderCtlplane(cs))
		}
		// Likewise the journal line and the history sparklines: endpoints
		// that are disabled or absent serve {"enabled": false}, which decodes
		// to a zero dump and renders nothing.
		if sd, err := getJSON[streamscope.Dump](*addr, "/debug/streams"); err == nil {
			fmt.Print(renderStreams(sd))
		}
		if hd, err := getJSON[metrics.HistoryDump](*addr, "/debug/history"); err == nil {
			fmt.Print(renderHistory(hd))
		}
	}
}

// renderCtlplane formats the adaptive controller's one-line status: mode,
// live pressure, the active knob positions, and the last decision taken.
// Disabled controllers render nothing.
func renderCtlplane(s *ctlplane.Snapshot) string {
	if s == nil || !s.Enabled {
		return ""
	}
	var b strings.Builder
	cutoff := "none"
	if s.DynCutoff >= 0 {
		cutoff = fmt.Sprintf("%d", s.DynCutoff)
	}
	budget := fmt.Sprintf("%d", s.FDIRBudget)
	if s.FDIRBudget < 0 {
		budget = "unlimited"
	}
	ppl := "no"
	if s.UnderPPL {
		ppl = "yes"
	}
	fmt.Fprintf(&b, "ctlplane mode=%s mem=%.1f%% arena=%.1f%% ppl=%s clamp=%s fdir-budget=%s p99(ring→worker)=%s",
		s.Mode, 100*s.MemFraction, 100*s.ArenaFraction, ppl, cutoff, budget,
		time.Duration(s.P99RingWorkerNs).Round(time.Microsecond))
	if len(s.Watermarks) > 0 {
		b.WriteString(" wm=[")
		for i, w := range s.Watermarks {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%.2f", w)
		}
		b.WriteByte(']')
	}
	if n := len(s.Decisions); n > 0 {
		d := s.Decisions[n-1]
		fmt.Fprintf(&b, "  last=%s(%d)@%s", d.Action, d.Value,
			time.Unix(0, d.TimeUnixNano).Format("15:04:05.000"))
	}
	b.WriteByte('\n')
	return b.String()
}

// renderStreams formats the stream-journal status line: pool population,
// sampling stride, and the top offender — the anomalous journal with the
// most recorded events.
func renderStreams(d *streamscope.Dump) string {
	if d == nil || d.Cores == 0 {
		return ""
	}
	var top *streamscope.JournalSnap
	for i := range d.Journals {
		js := &d.Journals[i]
		if js.AnomalyMask == 0 {
			continue
		}
		if top == nil || js.TotalEvents > top.TotalEvents {
			top = js
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "streams  journals=%d sampled=%d anomalies=%d stride=1/%d",
		len(d.Journals), d.Sampled, d.Anomalies, d.SampleEvery)
	if top != nil {
		fmt.Fprintf(&b, "  top=%s [%s] events=%d", top.Key, strings.Join(top.Anomalies, ","), top.TotalEvents)
	}
	b.WriteByte('\n')
	return b.String()
}

// sparkRunes is the eight-level bar alphabet sparklines draw with.
var sparkRunes = []rune("\u2581\u2582\u2583\u2584\u2585\u2586\u2587\u2588")

// sparkline draws the last sparkWidth values scaled against their max.
const sparkWidth = 60

func sparkline(vals []float64) string {
	if len(vals) > sparkWidth {
		vals = vals[len(vals)-sparkWidth:]
	}
	maxV := 0.0
	for _, v := range vals {
		if v > maxV {
			maxV = v
		}
	}
	var b strings.Builder
	for _, v := range vals {
		i := 0
		if maxV > 0 {
			i = int(v/maxV*float64(len(sparkRunes)-1) + 0.5)
		}
		b.WriteRune(sparkRunes[i])
	}
	return b.String()
}

// renderHistory formats the sparkline block from the history ring: the
// frame-inject rate and the arena occupancy over the retained window.
func renderHistory(hd *metrics.HistoryDump) string {
	if hd == nil || len(hd.Points) == 0 {
		return ""
	}
	var inject, occ []float64
	for _, pt := range hd.Points {
		for _, c := range pt.Counters {
			if c.Name == "nic_frames_total" {
				inject = append(inject, c.Rate)
			}
		}
		var used, total float64
		for _, g := range pt.Gauges {
			switch g.Name {
			case "arena_blocks_inuse":
				used = float64(g.Value)
			case "arena_blocks_total":
				total = float64(g.Value)
			}
		}
		if total > 0 {
			occ = append(occ, used/total)
		} else {
			occ = append(occ, 0)
		}
	}
	var b strings.Builder
	if len(inject) > 0 {
		fmt.Fprintf(&b, "history  inject/s %s now=%.0f/s\n", sparkline(inject), inject[len(inject)-1])
	}
	if len(occ) > 0 {
		fmt.Fprintf(&b, "         arena%%   %s now=%.1f%%\n", sparkline(occ), 100*occ[len(occ)-1])
	}
	return b.String()
}

// fetchBody reads one debug-server endpoint's raw response body.
func fetchBody(addr, path string) ([]byte, error) {
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, nil
}

// getJSON scrapes one debug-server endpoint and decodes its JSON body.
func getJSON[T any](addr, path string) (*T, error) {
	body, err := fetchBody(addr, path)
	if err != nil {
		return nil, err
	}
	var v T
	if err := json.Unmarshal(body, &v); err != nil {
		return nil, fmt.Errorf("parse %s: %v", path, err)
	}
	return &v, nil
}

// perCoreRows is the counter set shown per core, in display order.
var perCoreRows = []struct{ name, label string }{
	{"frames_total", "frames/s"},
	{"packets_total", "pkts/s"},
	{"stored_bytes_total", "stored B/s"},
	{"ppl_dropped_pkts_total", "ppl-drop/s"},
	{"cutoff_pkts_total", "cutoff/s"},
	{"events_lost_total", "ev-lost/s"},
}

// render formats one payload as the full-screen view.
func render(p *metrics.Payload) string {
	var b strings.Builder
	ts := time.Unix(0, p.TimeUnixNano).Format("15:04:05")
	fmt.Fprintf(&b, "scaptop  %s  window %.1fs  cores %d\n\n", ts, p.WindowSeconds, p.Cores)

	total := func(name string) uint64 {
		if c := p.Counter(name); c != nil {
			return c.Total
		}
		return 0
	}
	rate := func(name string) float64 {
		if c := p.Counter(name); c != nil {
			return c.Rate
		}
		return 0
	}
	fmt.Fprintf(&b, "frames   %12d  %10.0f/s    nic-ring-drop %10d  %8.0f/s\n",
		total("nic_frames_total"), rate("nic_frames_total"),
		total("nic_dropped_ring_total"), rate("nic_dropped_ring_total"))
	fmt.Fprintf(&b, "packets  %12d  %10.0f/s    nic-fdir-drop %10d  %8.0f/s\n",
		total("packets_total"), rate("packets_total"),
		total("nic_dropped_filter_total"), rate("nic_dropped_filter_total"))
	fmt.Fprintf(&b, "stored B %12d  %10.0f/s    ppl-drop      %10d  %8.0f/s\n",
		total("stored_bytes_total"), rate("stored_bytes_total"),
		total("ppl_dropped_pkts_total"), rate("ppl_dropped_pkts_total"))
	fmt.Fprintf(&b, "streams  %12d created       cutoff-pkts   %10d  %8.0f/s\n",
		total("streams_created_total"),
		total("cutoff_pkts_total"), rate("cutoff_pkts_total"))

	used, size := gaugeVal(p, "memory_used_bytes"), gaugeVal(p, "memory_size_bytes")
	pct := 0.0
	if size > 0 {
		pct = 100 * float64(used) / float64(size)
	}
	fmt.Fprintf(&b, "memory   %12d / %d bytes (%.1f%%), highwater %d\n",
		used, size, pct, gaugeVal(p, "memory_highwater_bytes"))
	fmt.Fprintf(&b, "arena    %12d / %d blocks in use (%d B/block, %d segs committed), free: global %d",
		gaugeVal(p, "arena_blocks_inuse"), gaugeVal(p, "arena_blocks_total"),
		gaugeVal(p, "arena_block_size_bytes"), gaugeVal(p, "arena_segments_committed"),
		gaugeVal(p, "arena_freelist_global"))
	for core := 0; core < p.Cores; core++ {
		fmt.Fprintf(&b, " c%d=%d", core, gaugeVal(p, fmt.Sprintf("arena_freelist_core%d", core)))
	}
	b.WriteString("\n")

	// Flow-table health: average slot groups touched per lookup (the
	// cache-line cost of a probe) and per-core occupancy/capacity.
	if lk := total("flowtab_lookups_total"); lk > 0 {
		perLookup := float64(total("flowtab_probe_groups_total")) / float64(lk)
		fmt.Fprintf(&b, "flowtab  %12d lookups (%.2f groups/lookup), swept %d groups, %d rehashes, occ:",
			lk, perLookup, total("flowtab_swept_groups_total"), total("flowtab_grows_total"))
		for core := 0; core < p.Cores; core++ {
			fmt.Fprintf(&b, " c%d=%d/%d", core,
				gaugeVal(p, fmt.Sprintf("flowtab_occupancy_core%d", core)),
				gaugeVal(p, fmt.Sprintf("flowtab_capacity_core%d", core)))
		}
		b.WriteString("\n")
	}
	// Sketch front-end: record-suppression volume and heavy-hitter counts.
	if obs := total("sketch_observed_pkts_total"); obs > 0 {
		fmt.Fprintf(&b, "sketch   %12d pkts observed, %d suppressed  %8.0f/s, heavies:",
			obs, total("sketch_suppressed_pkts_total"), rate("sketch_suppressed_pkts_total"))
		for core := 0; core < p.Cores; core++ {
			fmt.Fprintf(&b, " c%d=%d", core, gaugeVal(p, fmt.Sprintf("sketch_heavies_core%d", core)))
		}
		b.WriteString("\n")
	}
	b.WriteString(renderLatency(p))
	b.WriteString("\n")

	// Per-core rate table: one column per counter, one row per core.
	fmt.Fprintf(&b, "core")
	for _, r := range perCoreRows {
		fmt.Fprintf(&b, "  %12s", r.label)
	}
	b.WriteByte('\n')
	for core := 0; core < p.Cores; core++ {
		fmt.Fprintf(&b, "%4d", core)
		for _, r := range perCoreRows {
			v := 0.0
			if c := p.Counter(r.name); c != nil && core < len(c.PerCoreRate) {
				v = c.PerCoreRate[core]
			}
			fmt.Fprintf(&b, "  %12.0f", v)
		}
		b.WriteByte('\n')
	}

	b.WriteString(renderDrops(p))

	if len(p.Events) > 0 {
		fmt.Fprintf(&b, "\nrecent overload events (%d):\n", len(p.Events))
		evs := p.Events // oldest first
		if len(evs) > 10 {
			evs = evs[len(evs)-10:]
		}
		for _, e := range evs {
			fmt.Fprintf(&b, "  %s  %-20s core=%d", time.Unix(0, e.TimeUnixNano).Format("15:04:05.000"), e.KindName, e.Core)
			if e.Value != 0 {
				fmt.Fprintf(&b, " value=%d", e.Value)
			}
			if e.Dur != 0 {
				fmt.Fprintf(&b, " dur=%s", time.Duration(e.Dur))
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// latencyStages is the pipeline latency line's histogram set, in pipeline
// order (names registered by StartCapture / Create).
var latencyStages = []struct{ name, label string }{
	{"stage_ingest_engine_ns", "ingest→engine"},
	{"stage_engine_ring_ns", "engine→ring"},
	{"stage_ring_worker_ns", "ring→worker"},
	{"callback_ns", "callback"},
}

// renderLatency formats the per-stage p50/p99 latency line from the stage
// histograms; stages with no observations are skipped.
func renderLatency(p *metrics.Payload) string {
	var b strings.Builder
	for _, st := range latencyStages {
		h := p.Histogram(st.name)
		if h == nil || h.Count == 0 {
			continue
		}
		if b.Len() == 0 {
			b.WriteString("latency ")
		}
		p50 := time.Duration(metrics.QuantileFromSnap(*h, 0.50))
		p99 := time.Duration(metrics.QuantileFromSnap(*h, 0.99))
		fmt.Fprintf(&b, " %s p50=%s p99=%s", st.label, p50.Round(time.Microsecond), p99.Round(time.Microsecond))
	}
	if b.Len() > 0 {
		b.WriteByte('\n')
	}
	return b.String()
}

// renderDrops formats the drop-attribution table: one row per cause, with
// totals and windowed rates, plus per-core totals where available.
func renderDrops(p *metrics.Payload) string {
	if len(p.Drops) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString("\ndrops by cause:\n")
	fmt.Fprintf(&b, "  %-16s %12s %10s  %s\n", "cause", "total", "rate/s", "per-core")
	for i := range p.Drops {
		d := &p.Drops[i]
		cause := d.Cause
		if cause == "" {
			cause = d.Name
		}
		fmt.Fprintf(&b, "  %-16s %12d %10.0f  %v\n", cause, d.Total, d.Rate, d.PerCore)
	}
	return b.String()
}

func gaugeVal(p *metrics.Payload, name string) int64 {
	if g := p.Gauge(name); g != nil {
		return g.Value
	}
	return 0
}
