// Command benchmark is the repository's benchmark: four complete-flow
// workloads driven through a running capture socket in a closed-loop
// saturation phase and an open-loop paced phase, every delivered stream
// checked against a reference, plus (with -trace 1) a traced run and a
// replay of each layer's public functions. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	quick    bool
	result   string
	out      string
}

// quickDiv shrinks workloads in -quick mode.
const quickDiv = 8

func main() {
	var o options
	var compare bool
	flag.StringVar(&o.workload, "workload", "", "run this workload only and end with one JSON result line; empty runs the whole set")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 0, "measured seconds per run, 2/3 saturation and 1/3 paced (default 30, or 3 with -quick)")
	flag.IntVar(&o.trace, "trace", 0, "1: traced run with per-layer metrics and a trace file; 0: end-to-end metrics")
	flag.BoolVar(&o.quick, "quick", false, "smoke mode: small inputs, short phases; NOT a measurement")
	flag.StringVar(&o.result, "result", "", "also write the full result of a -workload run to this file")
	flag.StringVar(&o.out, "out", "", "where the whole-set run writes its JSON (default out/set-<time>.json)")
	flag.BoolVar(&compare, "compare", false, "compare two set files: -compare a.json b.json")
	flag.Parse()
	if o.seconds <= 0 {
		o.seconds = 30
		if o.quick {
			o.seconds = 3
		}
	}
	if o.trace != 0 && o.trace != 1 {
		fatal(fmt.Errorf("-trace takes 0 or 1"))
	}
	switch {
	case compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two set files"))
		}
		os.Exit(compareSets(flag.Arg(0), flag.Arg(1)))
	case o.workload == "":
		os.Exit(runSet(o))
	}
	w, ok := findWorkload(o.workload)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", o.workload))
	}
	res, err := runWorkload(w, o)
	if err != nil {
		fatal(err)
	}
	res.print()
	if o.result != "" {
		if err := writeJSON(o.result, res); err != nil {
			fatal(err)
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// runResult is everything one run of one workload reports.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Quick     bool                   `json:"quick"`
	Traced    bool                   `json:"traced"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Info holds figures printed beside the metrics: quartiles, sample
	// counts, the loss fraction, the calibration timings.
	Info     map[string]float64 `json:"info"`
	Problems []string           `json:"problems,omitempty"`
}

func (r *runResult) print() {
	if r.Quick {
		fmt.Println("QUICK MODE: small inputs and short phases — a smoke test, not a measurement")
	}
	fmt.Printf("workload %s seed %d seconds %g traced %v\n", r.Workload, r.Seed, r.Seconds, r.Traced)
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	for _, d := range defs {
		m := r.Metrics[d.Name]
		fmt.Printf("  %-40s %16.6g %s\n", d.Name, m.Value, m.Unit)
	}
	keys := make([]string, 0, len(r.Info))
	for k := range r.Info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  (%s = %.6g)\n", k, r.Info[k])
	}
	for _, p := range r.Problems {
		fmt.Println("  PROBLEM:", p)
	}
	fmt.Printf("  correct=%v attempted=%d failed=%d\n", r.Correct, r.Attempted, r.Failed)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// setUp performs step 1 of a run: build the frames from the seed, compute
// the reference, start the socket, verify one pass stream by stream and
// run two warm-up passes.
func setUp(w workloadSpec, seed int64, pool *slabPool, maxProbes int) (*runner, *frameSet, error) {
	set := buildFrames(w, seed, pool)
	ref, err := buildReference(set.frames, w.Cutoff)
	if err != nil {
		return nil, nil, err
	}
	if ref.incomplete > 0 {
		return nil, nil, fmt.Errorf("workload %s: %d TCP directions are not SYN→FIN complete", w.Name, ref.incomplete)
	}
	r, err := newRunner(w, set.frames, set.cliWord, ref, maxProbes)
	if err != nil {
		return nil, nil, err
	}
	r.verifyPass()
	clock := r.newClock(2)
	r.satPass(clock)
	r.satPass(clock)
	r.await(clock, 2, "warm-up")
	return r, set, nil
}

// probeBudget bounds the probes the paced phase can send: one per two
// batches, plus room for the phase rounding up to a whole pass, for every
// attempt.
func probeBudget(w workloadSpec, pacedSeconds float64) int {
	return pacedAttempts * (int(pacedSeconds*w.PacedFPS/pacedBatch/2) + 4096)
}

func runWorkload(w workloadSpec, o options) (*runResult, error) {
	if o.quick {
		w = w.scaled(quickDiv)
	}
	res := &runResult{Workload: w.Name, Seed: o.seed, Seconds: o.seconds, Quick: o.quick, Traced: o.trace == 1,
		Info: map[string]float64{"nproc": float64(runtime.NumCPU())}}
	var err error
	if o.trace == 1 {
		err = runTraced(w, o, res)
	} else {
		err = runEndToEnd(w, o, res)
	}
	return res, err
}

// runEndToEnd measures the end-to-end metrics with tracing off.
func runEndToEnd(w workloadSpec, o options, res *runResult) error {
	satD := time.Duration(o.seconds * 2 / 3 * float64(time.Second))
	pacedD := time.Duration(o.seconds / 3 * float64(time.Second))
	// Set-up is repeated and its median reported, so that a later change
	// that moves work into set-up shows against a steady baseline.
	reps := 2
	if o.quick {
		reps = 1
	}
	pool := &slabPool{}
	var r *runner
	var set *frameSet
	var setups, setupCalib []float64
	var carried []string
	maxProbes := probeBudget(w, pacedD.Seconds())
	for k := 0; k < reps; k++ {
		if r != nil {
			carried = append(carried, r.problems...)
			closeDiscard(r)
		}
		c0 := calibrate()
		t0 := nowNS()
		var err error
		if r, set, err = setUp(w, o.seed, pool, maxProbes); err != nil {
			return err
		}
		dt := float64(nowNS()-t0) / 1e9
		host := hostFactor([]float64{c0, calibrate()})
		setups = append(setups, dt/host)
		setupCalib = append(setupCalib, host)
	}
	r.problems = append(carried, r.problems...)

	sat := r.saturateParts(satD)
	pc := r.paced(pacedD)
	fin := r.finish()
	satHost, pacedHost := hostFactor(sat.calib), hostFactor(pc.calib)
	calib := append(sat.calib, pc.calib...)

	res.Correct, res.Attempted, res.Failed, res.Problems = fin.correct, fin.attempted, fin.failed, fin.problems
	res.Metrics = collect(endToEnd, map[string]float64{
		"frames_per_s":           quantile(sat.rates, 0.9) * satHost,
		"paced_cpu_ns_per_frame": pc.cpuNSPerFrame / pacedHost,
		"delivery_p50_us":        median(pc.latUS) / pacedHost,
		"delivered_frac":         1 - fin.lossFrac,
		"allocs_per_frame":       float64(sat.mallocs) / float64(sat.frames),
		"alloc_bytes_per_frame":  float64(sat.allocBytes) / float64(sat.frames),
		"peak_rss_mb":            peakRSSMiB(),
		"setup_s":                median(setups),
	})
	info := res.Info
	info["loss_frac"] = fin.lossFrac
	info["frames_per_s.raw"] = quantile(sat.rates, 0.9)
	info["paced_cpu_ns_per_frame.raw"] = pc.cpuNSPerFrame
	info["delivery_p50_us.raw"] = median(pc.latUS)
	info["setup_s.raw"] = median(setups) * median(setupCalib)
	info["bench.host_factor.saturation"] = satHost
	info["bench.host_factor.paced"] = pacedHost
	info["bench.host_factor.setup"] = median(setupCalib)
	info["frames_per_s.p25"] = quantile(sat.rates, 0.25)
	info["frames_per_s.p50"] = median(sat.rates)
	info["frames_per_s.p75"] = quantile(sat.rates, 0.75)
	info["frames_per_s.mean"] = float64(sat.frames) / (float64(sat.wallNS) / 1e9)
	info["bench.passes"] = float64(sat.passes)
	info["bench.frames_per_pass"] = float64(len(set.frames))
	info["bench.bytes_per_frame"] = float64(set.bytes) / float64(len(set.frames))
	info["bench.workload_mb"] = float64(set.bytes) / (1 << 20)
	info["bench.calib_ns_per_op"] = median(calib)
	info["bench.calib_spread_frac"] = (quantile(calib, 1) - quantile(calib, 0)) / median(calib)
	info["delivery.samples"] = float64(len(pc.latUS))
	info["delivery_p99_us"] = quantile(pc.latUS, 0.99)
	info["bench.gen_late_p99_us"] = quantile(pc.lateUS, 0.99)
	info["bench.paced_rate_achieved_frac"] = pc.achievedFrac
	info["bench.paced_passes"] = float64(pc.passes)
	info["bench.paced_attempts"] = float64(pc.attempts)
	info["bench.window_stalls"] = float64(r.windowStalls)
	info["scap.close_drain_ms"] = fin.drainMS
	return nil
}
