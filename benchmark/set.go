package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// calibTolerance is how much slower than the fastest calibration seen in
// the set a run's calibration may be before the run counts as disturbed and
// is repeated: normalisation absorbs less, this much and more it only
// roughly corrects.
const calibTolerance = 0.25

// setFile is what a whole-set run writes and -compare reads.
type setFile struct {
	Time    string       `json:"time"`
	Go      string       `json:"go"`
	NumCPU  int          `json:"nproc"`
	Quick   bool         `json:"quick"`
	Seed    int64        `json:"seed"`
	Seconds float64      `json:"seconds"`
	Runs    []setAttempt `json:"runs"`
}

// setAttempt is one child process: one workload, traced or not. Every
// attempt is kept; Accepted marks the one a workload's figures come from.
type setAttempt struct {
	Attempt  int  `json:"attempt"`
	Accepted bool `json:"accepted"`
	runResult
}

func (a *setAttempt) calib() float64 { return a.Info["bench.calib_ns_per_op"] }

// runSet runs every workload in a process of its own (end-to-end, and
// traced as well with -trace 1), re-runs disturbed workloads, prints the
// accepted figures and writes the set file. It returns the exit code.
func runSet(o options) int {
	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	if err := os.MkdirAll("out", 0o755); err != nil {
		fatal(err)
	}
	set := setFile{Time: time.Now().UTC().Format(time.RFC3339), Go: runtime.Version(), NumCPU: runtime.NumCPU(),
		Quick: o.quick, Seed: o.seed, Seconds: o.seconds}
	child := func(w string, traced bool, attempt int) setAttempt {
		tmp := filepath.Join("out", fmt.Sprintf("result-%s-%d.json", w, os.Getpid()))
		defer os.Remove(tmp)
		args := []string{"-workload", w, "-seed", strconv.FormatInt(o.seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-result", tmp, "-trace", "0"}
		if traced {
			args[len(args)-1] = "1"
		}
		if o.quick {
			args = append(args, "-quick")
		}
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fatal(fmt.Errorf("workload %s: %w", w, err))
		}
		a := setAttempt{Attempt: attempt}
		b, err := os.ReadFile(tmp)
		if err == nil {
			err = json.Unmarshal(b, &a.runResult)
		}
		if err != nil {
			fatal(fmt.Errorf("workload %s result: %w", w, err))
		}
		return a
	}

	// best[w] indexes the end-to-end attempt of w with the fastest
	// calibration so far.
	best := make(map[string]int)
	fastest := 0.0
	note := func(a setAttempt) {
		set.Runs = append(set.Runs, a)
		i := len(set.Runs) - 1
		if j, ok := best[a.Workload]; !ok || a.calib() < set.Runs[j].calib() {
			best[a.Workload] = i
		}
		if fastest == 0 || a.calib() < fastest {
			fastest = a.calib()
		}
	}
	for _, w := range workloads {
		note(child(w.Name, false, 1))
	}
	for round := 2; round <= 3; round++ {
		for _, w := range workloads {
			if c := set.Runs[best[w.Name]].calib(); c > fastest*(1+calibTolerance) {
				fmt.Printf("workload %s looks disturbed (calibration %.4g ns/op vs fastest %.4g): running it again\n", w.Name, c, fastest)
				note(child(w.Name, false, round))
			}
		}
	}
	for _, i := range best {
		set.Runs[i].Accepted = true
	}
	if o.trace == 1 {
		for _, w := range workloads {
			a := child(w.Name, true, 1)
			a.Accepted = true
			set.Runs = append(set.Runs, a)
		}
	}

	code := 0
	fmt.Println()
	if o.quick {
		fmt.Println("QUICK MODE: small inputs and short phases — a smoke test, not a measurement")
	}
	fmt.Printf("%-24s", "end-to-end metric")
	for _, w := range workloads {
		fmt.Printf(" %18s", w.Name)
	}
	fmt.Println()
	for _, d := range endToEnd {
		fmt.Printf("%-24s", d.Name+" ["+d.Unit+"]")
		for _, w := range workloads {
			fmt.Printf(" %18.6g", set.Runs[best[w.Name]].Metrics[d.Name].Value)
		}
		fmt.Println()
	}
	for _, a := range set.Runs {
		if a.Accepted && !a.Correct {
			fmt.Printf("FAILED: workload %s (traced %v): %v\n", a.Workload, a.Traced, a.Problems)
			code = 1
		}
		if a.Accepted && !a.Traced && a.calib() > fastest*(1+calibTolerance) {
			fmt.Printf("WARNING: workload %s still looks disturbed after %d attempts (calibration %.4g ns/op vs fastest %.4g)\n", a.Workload, a.Attempt, a.calib(), fastest)
		}
	}
	path := o.out
	if path == "" {
		path = filepath.Join("out", "set-"+time.Now().UTC().Format("20060102-150405")+".json")
	}
	if err := writeJSON(path, set); err != nil {
		fatal(err)
	}
	fmt.Println("set written to", path)
	return code
}

func readSet(path string) (*setFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s setFile
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// accepted returns the set's accepted end-to-end result per workload.
func (s *setFile) accepted() map[string]*setAttempt {
	out := make(map[string]*setAttempt)
	for i := range s.Runs {
		if a := &s.Runs[i]; a.Accepted && !a.Traced {
			out[a.Workload] = a
		}
	}
	return out
}

// worsening is how much worse b is than a, as a share of a, in the
// direction the metric counts as worse (negative: b is better).
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareSets prints every end-to-end metric of every workload in b
// against a with its bound, and returns 1 if any worsened past its bound
// (or a result is missing or incorrect), else 0.
func compareSets(pathA, pathB string) int {
	a, err := readSet(pathA)
	if err != nil {
		fatal(err)
	}
	b, err := readSet(pathB)
	if err != nil {
		fatal(err)
	}
	enforce := !a.Quick && !b.Quick
	if !enforce {
		fmt.Println("note: a quick-mode set is a smoke test, not a measurement; bounds are shown but not enforced")
	}
	ra, rb := a.accepted(), b.accepted()
	code := 0
	fmt.Printf("%-18s %-24s %14s %14s %9s %7s\n", "workload", "metric", "a", "b", "worse by", "bound")
	for _, w := range workloads {
		x, y := ra[w.Name], rb[w.Name]
		if x == nil || y == nil {
			fmt.Printf("%-18s missing from one of the sets\n", w.Name)
			code = 1
			continue
		}
		if !x.Correct || !y.Correct {
			fmt.Printf("%-18s has an incorrect run (a correct=%v, b correct=%v)\n", w.Name, x.Correct, y.Correct)
			code = 1
		}
		for _, d := range endToEnd {
			va, vb := x.Metrics[d.Name].Value, y.Metrics[d.Name].Value
			worse := worsening(d, va, vb)
			verdict := ""
			if worse > d.Bound {
				verdict = "  BREACH"
				if enforce {
					code = 1
				}
			}
			fmt.Printf("%-18s %-24s %14.6g %14.6g %+8.2f%% %6.1f%%%s\n", w.Name, d.Name, va, vb, 100*worse, 100*d.Bound, verdict)
		}
	}
	return code
}
