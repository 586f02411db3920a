package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"scap/internal/metrics"
)

// runTraced produces the per-layer metrics: the traced pipeline run
// (saturation and paced phases with a span around every call into the
// socket, the program's own counters scraped from /metrics before and
// after), Close, and the layer replay. An untraced saturation phase runs
// in two halves around the traced one, so the tracing overhead compares
// phases of the same warmth. The trace goes to out/trace-<workload>.json.
func runTraced(w workloadSpec, o options, res *runResult) error {
	plainD := time.Duration(o.seconds * 0.125 * float64(time.Second))
	satD := time.Duration(o.seconds * 0.25 * float64(time.Second))
	pacedD := time.Duration(o.seconds * 0.15 * float64(time.Second))
	replayD := time.Duration(o.seconds * 0.30 * float64(time.Second))

	tr := newTracer()
	run := tr.begin("run")
	id := tr.begin("setup")
	r, set, err := setUp(w, o.seed, nil, probeBudget(w, pacedD.Seconds()))
	if err != nil {
		return err
	}
	tr.end(id, map[string]any{"frames": len(set.frames), "bytes": set.bytes})
	sc, err := newScraper(r.h)
	if err != nil {
		return err
	}
	defer sc.close()

	calib := []float64{calibrate()}
	var plainRates []float64
	plainPhase := func() {
		id := tr.begin("saturation-untraced")
		plain := r.saturate(plainD)
		tr.end(id, map[string]any{"passes": plain.passes})
		plainRates = append(plainRates, plain.rates...)
		calib = append(calib, calibrate())
	}
	plainPhase()

	before, err := sc.scrape()
	if err != nil {
		return err
	}
	// live_streams_peak: the flow-table occupancy gauges, sampled while the
	// traced saturation phase runs.
	var peak float64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(200 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if p, err := sc.scrape(); err == nil {
					peak = max(peak, occupancy(p))
				}
			}
		}
	}()
	r.tr = tr
	id = tr.beginPhase("saturation", r)
	sat := r.saturate(satD)
	satInjectNS, satInjectFrames := tr.phaseInjectNS, tr.phaseInjectFrames
	tr.end(id, map[string]any{"passes": sat.passes, "frames": sat.frames})
	close(stop)
	wg.Wait()
	calib = append(calib, calibrate())
	r.tr = nil
	plainPhase()
	r.tr = tr

	id = tr.beginPhase("paced", r)
	pc := r.paced(pacedD)
	pacedInjectNS, pacedInjectFrames := tr.phaseInjectNS, tr.phaseInjectFrames
	tr.end(id, map[string]any{"passes": pc.passes, "frames": pc.frames, "probes": pc.probes})
	r.tr = nil
	calib = append(calib, calibrate())

	after, err := sc.scrape()
	if err != nil {
		return err
	}
	peak = max(peak, occupancy(after))
	id = tr.begin("close")
	fin := r.finish()
	tr.end(id, nil)

	id = tr.begin("layer-replay")
	layers := replayLayers(w, set.frames, replayD, tr)
	tr.end(id, nil)
	tr.end(run, nil)

	window := float64(sat.frames + pc.frames + 3*uint64(pc.probes))
	hist := func(name string) metrics.HistogramSnap {
		return histDelta(before.Histogram(name), after.Histogram(name))
	}
	q := func(h metrics.HistogramSnap, p float64) float64 { return metrics.QuantileFromSnap(h, p) }
	callbackH, ringWorkerH := hist("callback_ns"), hist("stage_ring_worker_ns")
	ingestH, engineRingH := hist("stage_ingest_engine_ns"), hist("stage_engine_ring_ns")
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	delta := func(name string) float64 { return counterDelta(before, after, name) }

	v := layers
	plainFPS, tracedFPS := quantile(plainRates, 0.9), quantile(sat.rates, 0.9)
	v["scap.pass_rate_p50"] = median(sat.rates)
	v["scap.pass_rate_iqr_frac"] = iqrFrac(sat.rates)
	v["scap.inject_ns_per_frame_sat"] = ratio(float64(satInjectNS), float64(satInjectFrames))
	v["scap.inject_ns_per_frame_paced"] = ratio(float64(pacedInjectNS), float64(pacedInjectFrames))
	v["scap.inject_blocked_frac"] = max(0, 1-ratio(v["scap.inject_ns_per_frame_paced"], v["scap.inject_ns_per_frame_sat"]))
	v["scap.events_per_frame"] = ratio(float64(sat.callbacks.events()), float64(sat.frames))
	v["scap.chunk_bytes_mean"] = histMean(hist("chunk_bytes"))
	v["scap.callback_ns_per_event"] = histMean(callbackH)
	v["scap.worker_batch_mean"] = histMean(hist("worker_batch_size"))
	v["scap.stage_ring_worker_p50_ns"] = q(ringWorkerH, 0.5)
	v["scap.stage_ring_worker_p99_ns"] = q(ringWorkerH, 0.99)
	v["scap.delivery_p99_us"] = quantile(pc.latUS, 0.99)
	v["scap.delivery_max_us"] = quantile(pc.latUS, 1)
	v["scap.close_drain_ms"] = fin.drainMS
	// What two cores' worth of time per frame is not spent in the NIC
	// model, the engine or the callbacks: goroutine hand-offs, channel
	// operations, parking and spinning, and the injector's own loop.
	cores := float64(min(runtime.GOMAXPROCS(0), 5))
	callbackPerFrame := ratio(float64(callbackH.Sum), window)
	v["scap.handoff_residual_ns_per_frame"] = cores*1e9/plainFPS - v["nic.receive_ns_per_frame"] - v["core.engine_ns_per_frame"] - callbackPerFrame
	v["nic.dropped_at_nic_frac"] = ratio(delta("nic_dropped_filter_total"), delta("nic_frames_total"))
	v["nic.ring_drop_frames"] = delta("nic_dropped_ring_total")
	v["nic.queue_skew"] = queueSkew(before, after)
	v["flowtab.probe_groups_per_lookup"] = ratio(delta("flowtab_probe_groups_total"), delta("flowtab_lookups_total"))
	v["flowtab.live_streams_peak"] = peak
	v["sketch.suppressed_frac"] = ratio(delta("sketch_suppressed_pkts_total"), delta("nic_frames_total"))
	v["mem.high_water_mb"] = float64(fin.stats.MemoryHighWater) / (1 << 20)
	v["mem.arena_exhausted"] = float64(fin.stats.ArenaExhausted)
	v["event.events_lost"] = float64(fin.stats.EventsLost)
	v["core.stage_ingest_engine_p50_ns"] = q(ingestH, 0.5)
	v["core.stage_ingest_engine_p99_ns"] = q(ingestH, 0.99)
	v["core.stage_engine_ring_p50_ns"] = q(engineRingH, 0.5)
	v["core.stage_engine_ring_p99_ns"] = q(engineRingH, 0.99)
	v["core.cutoff_bytes_frac"] = ratio(delta("cutoff_bytes_total"), delta("payload_bytes_total"))
	v["core.fdir_installed"] = delta("fdir_installed_total")
	v["core.streams_created_per_kframe"] = 1000 * ratio(delta("streams_created_total"), delta("nic_frames_total"))
	v["core.ppl_dropped_pkts"] = float64(fin.stats.PPLDroppedPkts)
	v["bench.calib_ns_per_op"] = median(calib)
	v["bench.gen_late_p99_us"] = quantile(pc.lateUS, 0.99)
	v["bench.paced_rate_achieved_frac"] = pc.achievedFrac
	v["bench.workload_mb"] = float64(set.bytes) / (1 << 20)
	v["bench.passes"] = float64(sat.passes)
	v["bench.trace_overhead_frac"] = 1 - ratio(tracedFPS, plainFPS)

	res.Correct, res.Attempted, res.Failed, res.Problems = fin.correct, fin.attempted, fin.failed, fin.problems
	res.Metrics = collect(perLayer, v)
	res.Info["loss_frac"] = fin.lossFrac
	res.Info["frames_per_s.untraced"] = plainFPS
	res.Info["frames_per_s.traced"] = tracedFPS
	res.Info["delivery.samples"] = float64(len(pc.latUS))
	res.Info["bench.paced_attempts"] = float64(pc.attempts)
	res.Info["bench.window_stalls"] = float64(r.windowStalls)
	res.Info["scap.callback_ns_per_frame"] = callbackPerFrame

	path := filepath.Join("out", "trace-"+w.Name+".json")
	meta := map[string]any{"workload": w.Name, "seed": o.seed, "quick": o.quick, "clock": "ns since process start"}
	if err := tr.write(path, meta); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	fmt.Printf("trace written to %s (%d spans, %d InjectBatch calls)\n", path, len(tr.spans), len(tr.injects))
	return nil
}

// occupancy sums the per-core flow-table occupancy gauges.
func occupancy(p *metrics.Payload) float64 {
	var n float64
	for _, g := range p.Gauges {
		if strings.HasPrefix(g.Name, "flowtab_occupancy_core") {
			n += float64(g.Value)
		}
	}
	return n
}

// queueSkew is the busiest queue's share of frames over the mean share.
func queueSkew(before, after *metrics.Payload) float64 {
	a, b := before.Counter("frames_total"), after.Counter("frames_total")
	if b == nil || len(b.PerCore) == 0 {
		return 0
	}
	var most, sum float64
	for i, n := range b.PerCore {
		d := float64(n)
		if a != nil && i < len(a.PerCore) {
			d -= float64(a.PerCore[i])
		}
		most = max(most, d)
		sum += d
	}
	if sum == 0 {
		return 0
	}
	return most / (sum / float64(len(b.PerCore)))
}
