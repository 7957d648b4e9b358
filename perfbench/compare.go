package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// fingerprint identifies the machine and build a record was measured
// on. Records compare only when everything but the commit matches.
type fingerprint struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func machineFingerprint() fingerprint {
	return fingerprint{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     commit(),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the build stamped, or "unknown" when the
// sources were not a git checkout.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sameMachine reports whether two fingerprints may be compared, and why
// not.
func sameMachine(a, b fingerprint) (bool, string) {
	a.Commit, b.Commit = "", ""
	if a == b {
		return true, ""
	}
	return false, fmt.Sprintf("%+v vs %+v", a, b)
}

// record is one run as appended by --record.
type record struct {
	Fingerprint fingerprint          `json:"fingerprint"`
	Workload    string               `json:"workload"`
	Seed        int64                `json:"seed"`
	Trace       bool                 `json:"trace"`
	Correct     bool                 `json:"correct"`
	Metrics     map[string]metricVal `json:"metrics"`
}

func appendRecord(path string, fp fingerprint, opts options, rep *report) error {
	line, err := json.Marshal(record{
		Fingerprint: fp, Workload: opts.workload, Seed: opts.seed,
		Trace: opts.trace, Correct: rep.correct(), Metrics: rep.vals,
	})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("record: %w", err)
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("record: %w", err)
	}
	return f.Close()
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// compareMain prints, per workload and metric, the median of the base
// records, the median of the new ones and their ratio. It refuses (exit
// 3) when any two records come from unlike machines.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare BASE.jsonl NEW.jsonl")
		return 2
	}
	base, err := readRecords(args[0])
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	next, err := readRecords(args[1])
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	all := append(append([]record(nil), base...), next...)
	if len(base) == 0 || len(next) == 0 {
		fmt.Fprintln(stderr, "perfbench: nothing to compare")
		return 2
	}
	for _, r := range all[1:] {
		if ok, why := sameMachine(all[0].Fingerprint, r.Fingerprint); !ok {
			fmt.Fprintln(stderr, "perfbench: refusing to compare records from unlike machines:", why)
			return 3
		}
	}
	type key struct{ workload, metric string }
	collect := func(rs []record) map[key][]float64 {
		m := map[key][]float64{}
		for _, r := range rs {
			for name, v := range r.Metrics {
				k := key{r.Workload, name}
				m[k] = append(m[k], v.Value)
			}
		}
		return m
	}
	b, n := collect(base), collect(next)
	var keys []key
	for k := range b {
		if _, ok := n[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	for _, k := range keys {
		mb, mn := median(b[k]), median(n[k])
		ratio := 0.0
		if mb != 0 {
			ratio = mn / mb
		}
		fmt.Fprintf(stdout, "%-18s %-36s base %12.6g (n=%d)  new %12.6g (n=%d)  new/base %.4f\n",
			k.workload, k.metric, mb, len(b[k]), mn, len(n[k]), ratio)
	}
	return 0
}
