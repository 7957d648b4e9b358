// Command perfbench is the repository benchmark: closed-loop clock-sync
// workloads over the lockstep engine, the multi-tenant engine, a
// Real-mode UDP cluster and the public Cluster API, each generated from a
// seed, checked for correctness and measured end to end. With --trace 1
// the same workload runs again under decorators that split the beat by
// layer.
//
//	perfbench --workload engine-n7 --seed 1 --seconds 10 --trace 0
//	perfbench compare old.jsonl new.jsonl
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it print every
// metric by name and unit with its sample count, and the machine
// fingerprint. The exit code is 1 when any correctness check failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricVal is one reported metric.
type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics, the work attempted and failed, and
// any correctness violations.
type report struct {
	vals       map[string]metricVal
	notes      map[string]string
	attempted  int
	failed     int
	violations []string
	details    []string
}

func newReport() *report {
	return &report{vals: map[string]metricVal{}, notes: map[string]string{}}
}

// set records a metric; note (may be empty) is printed beside it.
func (r *report) set(name string, v float64, unit, note string) {
	r.vals[name] = metricVal{Value: v, Unit: unit}
	if note != "" {
		r.notes[name] = note
	}
}

// detail records a line of explanation printed before the metrics.
func (r *report) detail(format string, args ...any) {
	r.details = append(r.details, fmt.Sprintf(format, args...))
}

// violate records a failed correctness check.
func (r *report) violate(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

func (r *report) correct() bool { return len(r.violations) == 0 && r.failed == 0 }

// result is the final output line.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricVal `json:"metrics"`
}

// options are one run's inputs.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	budget   int // beats a lockstep episode may take to reach its hold
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed every input of the run derives from")
	seconds := fs.Float64("seconds", 10, "measured run length")
	trace := fs.Int("trace", 0, "1 runs the traced twin and reports per-layer metrics")
	record := fs.String("record", "", "append the run's fingerprinted record to this file")
	budget := fs.Int("budget", defaultBudget, "beats a lockstep episode may take to converge; a small value makes the correctness check fail")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*wl]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s)\n", *wl, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace takes 0 or 1")
		return 2
	}
	if *budget < 1 {
		fmt.Fprintln(stderr, "perfbench: --budget must be positive")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	// All load comes from this process, on no more threads than CPUs.
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	opts := options{workload: *wl, seed: *seed, seconds: *seconds, trace: *trace == 1, budget: *budget}
	fp := machineFingerprint()
	fpJSON, _ := json.Marshal(fp)
	fmt.Fprintf(stdout, "# fingerprint %s\n", fpJSON)

	rep := newReport()
	if opts.trace {
		w.traced(opts, rep)
	} else {
		w.run(opts, rep)
	}
	printReport(stdout, opts, rep)
	if *record != "" {
		if err := appendRecord(*record, fp, opts, rep); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	if !rep.correct() {
		return 1
	}
	return 0
}

// printReport prints the human-readable table, then the result line.
func printReport(out io.Writer, opts options, rep *report) {
	mode := "end-to-end"
	if opts.trace {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(out, "# workload %s seed %d seconds %g: %s\n", opts.workload, opts.seed, opts.seconds, mode)
	for _, d := range rep.details {
		fmt.Fprintf(out, "# %s\n", d)
	}
	share := 0.0
	if rep.attempted > 0 {
		share = float64(rep.failed) / float64(rep.attempted)
	}
	fmt.Fprintf(out, "%-36s %14.6g %-8s failed %d of %d attempted\n", "failed_share", share, "share", rep.failed, rep.attempted)
	var names []string
	for n := range rep.vals {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := rep.vals[n]
		fmt.Fprintf(out, "%-36s %14.6g %-8s %s\n", n, v.Value, v.Unit, rep.notes[n])
	}
	for _, v := range rep.violations {
		fmt.Fprintf(out, "VIOLATION: %s\n", v)
	}
	res := result{Correct: rep.correct(), Attempted: rep.attempted, Failed: rep.failed, Metrics: rep.vals}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Correct = false
	}
	line, _ := json.Marshal(res)
	fmt.Fprintln(out, string(line))
}

// deadline returns a func reporting whether the run's measured time,
// counted from now, has elapsed.
func deadline(seconds float64) func() bool {
	end := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	return func() bool { return time.Now().After(end) }
}
