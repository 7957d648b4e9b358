// Command benchjson converts `go test -bench` output on stdin into a JSON
// array on stdout, so the per-beat benchmark trajectory can be recorded
// (BENCH_beat.json) and compared across PRs by CI or scripts/bench.sh.
//
// Usage:
//
//	go test -run=NONE -bench=BenchmarkBeat -benchmem . | go run ./cmd/benchjson > BENCH_beat.json
//
// Names are recorded without the -GOMAXPROCS suffix `go test` appends
// on multi-core hosts (…/n=7-2 is stored as …/n=7 with "procs": 2), so
// runs from hosts with different core counts compare entry by entry.
// Repeated lines for one benchmark (-count=N) fold into one entry: the
// median of each metric, plus the run count and the ns/op min and max.
//
// Gate mode compares two recorded runs and fails (exit 1) when a
// baseline benchmark is missing from the new run, or when any
// benchmark present in both regressed beyond the thresholds — ns/op
// against -threshold, B/op and allocs/op against -memthreshold (the
// memory gate locks in the payload-pooling win; tiny absolute jitters
// below 1 KiB / 16 allocs never fail it), and the custom
// resident-bytes/tenant metric (BenchmarkResidentTenants) against
// -residentthreshold, which locks in the resident-tenant memory floor:
//
//	go run ./cmd/benchjson -gate old.json new.json [-threshold 15] [-memthreshold 25] [-residentthreshold 10]
//
// Merge mode rewrites a fresh recording while carrying forward baseline
// entries whose names match -carry and were not re-run. scripts/bench.sh
// uses it so a default (fast) re-record does not silently drop the
// BenchmarkResidentTenants series, whose single iteration at T=1e5 takes
// ~20 minutes and is only re-measured on demand (BENCH_RESIDENT=1):
//
//	go run ./cmd/benchjson -merge -carry '^BenchmarkResidentTenants/' base.json fresh.json > out.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark: a parsed line, or the medians of its
// repeated lines. Extra holds custom metrics such as beats/convergence
// or agreement-rate. Procs is the GOMAXPROCS the run used (0: unknown,
// in records written before it was kept).
type Result struct {
	Name        string             `json:"name"`
	Procs       int                `json:"procs,omitempty"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	Runs        int                `json:"runs,omitempty"`
	NsMin       float64            `json:"ns_min,omitempty"`
	NsMax       float64            `json:"ns_max,omitempty"`
	BytesPerOp  int64              `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64              `json:"allocs_per_op,omitempty"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// splitProcs strips the -GOMAXPROCS suffix `go test` appends to a
// benchmark name when GOMAXPROCS > 1. A name without one ran at
// GOMAXPROCS 1, which `go test` leaves unsuffixed.
func splitProcs(name string) (string, int) {
	if i := strings.LastIndexByte(name, '-'); i >= 0 {
		if procs, err := strconv.Atoi(name[i+1:]); err == nil && procs > 0 {
			return name[:i], procs
		}
	}
	return name, 1
}

func main() {
	gate := flag.Bool("gate", false, "compare two JSON files: -gate old.json new.json")
	threshold := flag.Float64("threshold", 15, "max allowed ns/op regression, percent")
	memThreshold := flag.Float64("memthreshold", 25, "max allowed B/op and allocs/op regression, percent")
	residentThreshold := flag.Float64("residentthreshold", 10, "max allowed resident-bytes/tenant regression, percent")
	merge := flag.Bool("merge", false, "merge two JSON files: -merge -carry <regexp> base.json fresh.json")
	carry := flag.String("carry", "", "with -merge: regexp of baseline benchmark names to carry forward when absent from the fresh run")
	flag.Parse()
	if *gate {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -gate needs exactly two files: old.json new.json")
			os.Exit(2)
		}
		os.Exit(runGate(flag.Arg(0), flag.Arg(1), *threshold, *memThreshold, *residentThreshold))
	}
	if *merge {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -merge needs exactly two files: base.json fresh.json")
			os.Exit(2)
		}
		os.Exit(runMerge(flag.Arg(0), flag.Arg(1), *carry, os.Stdout))
	}
	results, err := parseBench(os.Stdin, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// parseBench reads `go test -bench` output, echoing every line to echo
// so the tool can sit in a pipeline without hiding output, and returns
// one Result per benchmark in order of first appearance: names without
// their -GOMAXPROCS suffix, repeated lines folded by foldRuns.
func parseBench(in io.Reader, echo io.Writer) ([]Result, error) {
	var order []string
	runs := make(map[string][]Result)
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(echo, line)
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		r := Result{Iterations: iters}
		r.Name, r.Procs = splitProcs(fields[0])
		// Remaining fields come in (value, unit) pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				r.NsPerOp = val
			case "B/op":
				r.BytesPerOp = int64(val)
			case "allocs/op":
				r.AllocsPerOp = int64(val)
			default:
				if r.Extra == nil {
					r.Extra = make(map[string]float64)
				}
				r.Extra[unit] = val
			}
		}
		if _, ok := runs[r.Name]; !ok {
			order = append(order, r.Name)
		}
		runs[r.Name] = append(runs[r.Name], r)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	results := make([]Result, 0, len(order))
	for _, name := range order {
		results = append(results, foldRuns(runs[name]))
	}
	return results, nil
}

// foldRuns merges one benchmark's repeated lines (-count=N) into a
// single Result holding the median of every metric, with the run count
// and the ns/op range alongside. A single line is returned as is.
func foldRuns(rs []Result) Result {
	if len(rs) == 1 {
		return rs[0]
	}
	med := func(get func(Result) float64) float64 {
		xs := make([]float64, len(rs))
		for i, r := range rs {
			xs[i] = get(r)
		}
		sort.Float64s(xs)
		m := len(xs) / 2
		if len(xs)%2 == 0 {
			return (xs[m-1] + xs[m]) / 2
		}
		return xs[m]
	}
	out := Result{
		Name:        rs[0].Name,
		Procs:       rs[0].Procs,
		Runs:        len(rs),
		Iterations:  int64(math.Round(med(func(r Result) float64 { return float64(r.Iterations) }))),
		NsPerOp:     med(func(r Result) float64 { return r.NsPerOp }),
		BytesPerOp:  int64(math.Round(med(func(r Result) float64 { return float64(r.BytesPerOp) }))),
		AllocsPerOp: int64(math.Round(med(func(r Result) float64 { return float64(r.AllocsPerOp) }))),
		NsMin:       rs[0].NsPerOp,
		NsMax:       rs[0].NsPerOp,
	}
	for _, r := range rs {
		out.NsMin = math.Min(out.NsMin, r.NsPerOp)
		out.NsMax = math.Max(out.NsMax, r.NsPerOp)
		for unit := range r.Extra {
			if _, done := out.Extra[unit]; done {
				continue
			}
			if out.Extra == nil {
				out.Extra = make(map[string]float64)
			}
			out.Extra[unit] = med(func(r Result) float64 { return r.Extra[unit] })
		}
	}
	return out
}

// loadResults reads a recorded run, normalizing names that still carry
// a -GOMAXPROCS suffix (records written before the suffix was split
// off) into the name plus Procs.
func loadResults(path string) ([]Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs []Result
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for i := range rs {
		if name, procs := splitProcs(rs[i].Name); name != rs[i].Name {
			rs[i].Name, rs[i].Procs = name, procs
		}
	}
	return rs, nil
}

// runMerge writes the fresh recording plus any baseline entries whose
// names match carryRe and were not re-run, appended in baseline order.
// Only matched names are carried — a benchmark that was renamed or
// deleted must not be resurrected from the baseline — so an empty
// pattern makes the merge a plain copy of the fresh file.
func runMerge(basePath, freshPath, carryRe string, out io.Writer) int {
	base, err := loadResults(basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}
	fresh, err := loadResults(freshPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}
	merged := fresh
	if carryRe != "" {
		re, err := regexp.Compile(carryRe)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson: bad -carry pattern:", err)
			return 2
		}
		have := make(map[string]bool, len(fresh))
		for _, r := range fresh {
			have[r.Name] = true
		}
		for _, r := range base {
			if re.MatchString(r.Name) && !have[r.Name] {
				merged = append(merged, r)
				fmt.Fprintf(os.Stderr, "benchjson: carried forward %s\n", r.Name)
			}
		}
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(merged); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 1
	}
	return 0
}

// memRegressed reports whether a memory metric (B/op or allocs/op) rose
// beyond the threshold. Absolute deltas below the floor never count:
// single-digit alloc and sub-KiB byte counts jitter with scheduler
// goroutine reuse, and a gate that cries wolf gets disabled.
func memRegressed(old, new int64, thresholdPct float64, floor int64) bool {
	if old <= 0 || new <= old || new-old < floor {
		return false
	}
	return float64(new-old)/float64(old)*100 > thresholdPct
}

// residentMetric is the custom-unit key under which the parser records
// BenchmarkResidentTenants' b.ReportMetric reading. The gate treats it
// as a first-class metric with its own threshold: resident bytes/tenant
// is the service-capacity number (how many tenants fit in RAM), and a
// regression there is invisible to B/op, which counts allocation
// throughput rather than what stays live between beats.
const residentMetric = "resident-bytes/tenant"

// runGate loads two recorded runs and reports per-benchmark deltas,
// matching entries by name without the -GOMAXPROCS suffix. It returns
// 1 when any benchmark present in both regressed beyond the ns/op
// threshold, the B/op / allocs/op memory threshold, or the
// resident-bytes/tenant threshold, and when a baseline benchmark is
// missing from the new run: a gate that silently passes vanished
// entries cannot fail. scripts/bench.sh gates the -merge output, so
// the entries -carry carries forward on purpose are present. New
// benchmarks are reported but never fail the gate.
func runGate(oldPath, newPath string, thresholdPct, memThresholdPct, residentThresholdPct float64) int {
	oldList, err := loadResults(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}
	newList, err := loadResults(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}
	oldM := make(map[string]Result, len(oldList))
	for _, r := range oldList {
		oldM[r.Name] = r
	}
	failed := false
	seen := make(map[string]bool, len(newList))
	for _, nr := range newList {
		seen[nr.Name] = true
		or, ok := oldM[nr.Name]
		if !ok || or.NsPerOp <= 0 {
			fmt.Printf("NEW      %-45s %14.0f ns/op\n", nr.Name, nr.NsPerOp)
			continue
		}
		deltaPct := (nr.NsPerOp - or.NsPerOp) / or.NsPerOp * 100
		status := "ok"
		if deltaPct > thresholdPct {
			status = "REGRESSED"
			failed = true
		}
		// Memory gate: B/op within 1 KiB and allocs/op within 16 of the
		// baseline pass regardless of percentage (noise floor).
		if memRegressed(or.BytesPerOp, nr.BytesPerOp, memThresholdPct, 1024) {
			status = "MEM-REGRESSED"
			failed = true
		}
		if memRegressed(or.AllocsPerOp, nr.AllocsPerOp, memThresholdPct, 16) {
			status = "MEM-REGRESSED"
			failed = true
		}
		resident := ""
		if ov, nv := or.Extra[residentMetric], nr.Extra[residentMetric]; ov > 0 && nv > 0 {
			if nv > ov && (nv-ov)/ov*100 > residentThresholdPct {
				status = "RES-REGRESSED"
				failed = true
			}
			resident = fmt.Sprintf("  %11.0f -> %11.0f resident-B/tenant (%+.1f%%)", ov, nv, (nv-ov)/ov*100)
		}
		procs := ""
		if or.Procs > 0 && nr.Procs > 0 && or.Procs != nr.Procs {
			procs = fmt.Sprintf("  procs %d -> %d", or.Procs, nr.Procs)
		}
		fmt.Printf("%-14s%-45s %12.0f -> %12.0f ns/op (%+.1f%%)  %9d -> %9d B/op  %6d -> %6d allocs/op%s%s\n",
			status, nr.Name, or.NsPerOp, nr.NsPerOp, deltaPct,
			or.BytesPerOp, nr.BytesPerOp, or.AllocsPerOp, nr.AllocsPerOp, resident, procs)
	}
	for _, or := range oldList {
		if !seen[or.Name] {
			fmt.Printf("MISSING  %-45s (in the baseline, not in the new run)\n", or.Name)
			failed = true
		}
	}
	if failed {
		fmt.Fprintf(os.Stderr, "benchjson: missing baseline entries or regression beyond thresholds (ns/op %.1f%%, mem %.1f%%, resident %.1f%%)\n",
			thresholdPct, memThresholdPct, residentThresholdPct)
		return 1
	}
	return 0
}
