package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeRun(t *testing.T, dir, name string, rs []Result) string {
	t.Helper()
	b, err := json.Marshal(rs)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestGateCoversMemoryMetrics(t *testing.T) {
	dir := t.TempDir()
	base := []Result{{Name: "BenchmarkBeat/n=16", Iterations: 50, NsPerOp: 2e6, BytesPerOp: 2000, AllocsPerOp: 100}}
	old := writeRun(t, dir, "old.json", base)

	cases := []struct {
		name string
		new  Result
		want int
	}{
		{"unchanged", Result{Name: "BenchmarkBeat/n=16", NsPerOp: 2e6, BytesPerOp: 2000, AllocsPerOp: 100}, 0},
		{"ns regression", Result{Name: "BenchmarkBeat/n=16", NsPerOp: 3e6, BytesPerOp: 2000, AllocsPerOp: 100}, 1},
		{"bytes regression", Result{Name: "BenchmarkBeat/n=16", NsPerOp: 2e6, BytesPerOp: 2_000_000, AllocsPerOp: 100}, 1},
		{"allocs regression", Result{Name: "BenchmarkBeat/n=16", NsPerOp: 2e6, BytesPerOp: 2000, AllocsPerOp: 1000}, 1},
		// Large percentage but tiny absolute delta: noise floor passes it.
		{"bytes jitter under floor", Result{Name: "BenchmarkBeat/n=16", NsPerOp: 2e6, BytesPerOp: 2900, AllocsPerOp: 100}, 0},
		{"allocs jitter under floor", Result{Name: "BenchmarkBeat/n=16", NsPerOp: 2e6, BytesPerOp: 2000, AllocsPerOp: 112}, 0},
		// Improvements never fail.
		{"improvement", Result{Name: "BenchmarkBeat/n=16", NsPerOp: 1e6, BytesPerOp: 100, AllocsPerOp: 10}, 0},
	}
	for _, tc := range cases {
		newPath := writeRun(t, dir, "new.json", []Result{tc.new})
		if got := runGate(old, newPath, 15, 25, 10); got != tc.want {
			t.Errorf("%s: gate returned %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestGateCoversResidentMetric(t *testing.T) {
	dir := t.TempDir()
	name := "BenchmarkResidentTenants/ClockSyncFM/n=4/T=1000"
	mk := func(resident float64) Result {
		r := Result{Name: name, Iterations: 1, NsPerOp: 5e9}
		if resident > 0 {
			r.Extra = map[string]float64{residentMetric: resident}
		}
		return r
	}
	old := writeRun(t, dir, "old.json", []Result{mk(58_000)})

	cases := []struct {
		name string
		new  Result
		want int
	}{
		{"unchanged", mk(58_000), 0},
		{"within threshold", mk(60_000), 0},
		{"regressed", mk(70_000), 1},
		{"improved", mk(40_000), 0},
		// A run that stopped reporting the metric can't be compared;
		// like NEW/REMOVED benchmarks, that never fails the gate.
		{"metric dropped", mk(0), 0},
	}
	for _, tc := range cases {
		newPath := writeRun(t, dir, "new.json", []Result{tc.new})
		if got := runGate(old, newPath, 15, 25, 10); got != tc.want {
			t.Errorf("%s: gate returned %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestMemRegressed(t *testing.T) {
	if memRegressed(0, 5000, 25, 1024) {
		t.Error("zero baseline must not regress")
	}
	if memRegressed(2000, 2000, 25, 1024) {
		t.Error("equal values must not regress")
	}
	if !memRegressed(2000, 4000, 25, 1024) {
		t.Error("2x growth above floor must regress")
	}
	if memRegressed(10, 20, 25, 16) {
		t.Error("sub-floor absolute delta must not regress")
	}
}

// TestMergeCarriesMatchingBaselines: -merge keeps the fresh run
// verbatim and appends only baseline entries matching -carry that the
// fresh run did not re-record — a renamed benchmark outside the carry
// pattern must stay gone, and a re-recorded carried name must take the
// fresh value.
func TestMergeCarriesMatchingBaselines(t *testing.T) {
	dir := t.TempDir()
	base := writeRun(t, dir, "base.json", []Result{
		{Name: "BenchmarkBeat/n=16", Iterations: 50, NsPerOp: 2e6},
		{Name: "BenchmarkOld/renamed", Iterations: 10, NsPerOp: 1e6},
		{Name: "BenchmarkResidentTenants/ClockSyncFM/n=4/T=1000", Iterations: 1, NsPerOp: 1e9,
			Extra: map[string]float64{"resident-bytes/tenant": 58840}},
		{Name: "BenchmarkResidentTenants/ClockSyncFM/n=7/T=1000", Iterations: 1, NsPerOp: 5e9,
			Extra: map[string]float64{"resident-bytes/tenant": 198647}},
	})
	fresh := writeRun(t, dir, "fresh.json", []Result{
		{Name: "BenchmarkBeat/n=16", Iterations: 60, NsPerOp: 1.9e6},
		{Name: "BenchmarkResidentTenants/ClockSyncFM/n=4/T=1000", Iterations: 1, NsPerOp: 1.1e9,
			Extra: map[string]float64{"resident-bytes/tenant": 58000}},
	})

	run := func(carry string) []Result {
		t.Helper()
		out := filepath.Join(dir, "out.json")
		f, err := os.Create(out)
		if err != nil {
			t.Fatal(err)
		}
		if got := runMerge(base, fresh, carry, f); got != 0 {
			t.Fatalf("runMerge = %d, want 0", got)
		}
		f.Close()
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		var rs []Result
		if err := json.Unmarshal(data, &rs); err != nil {
			t.Fatal(err)
		}
		return rs
	}

	got := run(`^BenchmarkResidentTenants/`)
	wantNames := []string{
		"BenchmarkBeat/n=16",
		"BenchmarkResidentTenants/ClockSyncFM/n=4/T=1000",
		"BenchmarkResidentTenants/ClockSyncFM/n=7/T=1000",
	}
	if len(got) != len(wantNames) {
		t.Fatalf("merged %d entries, want %d: %+v", len(got), len(wantNames), got)
	}
	for i, name := range wantNames {
		if got[i].Name != name {
			t.Fatalf("entry %d = %s, want %s", i, got[i].Name, name)
		}
	}
	// The re-recorded carried name took the fresh measurement.
	if got[1].Extra["resident-bytes/tenant"] != 58000 {
		t.Fatalf("re-recorded entry kept the baseline value: %+v", got[1])
	}
	// The n=7 entry was carried forward with its baseline value intact.
	if got[2].Extra["resident-bytes/tenant"] != 198647 {
		t.Fatalf("carried entry lost its baseline value: %+v", got[2])
	}

	// Empty pattern: plain copy of the fresh run, nothing resurrected.
	if got := run(""); len(got) != 2 {
		t.Fatalf("empty carry merged %d entries, want 2", len(got))
	}
}

// parseLines runs the stdin parser over go test output.
func parseLines(t *testing.T, lines ...string) []Result {
	t.Helper()
	rs, err := parseBench(strings.NewReader(strings.Join(lines, "\n")), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// TestParseSplitsProcsAndFoldsRuns: the -GOMAXPROCS suffix moves into
// Procs, and -count repeats fold into medians with the ns/op range.
func TestParseSplitsProcsAndFoldsRuns(t *testing.T) {
	rs := parseLines(t,
		"goos: linux",
		"BenchmarkBeat/ClockSyncFM/n=7-2   1000   90000 ns/op   800 B/op   20 allocs/op",
		"BenchmarkBeat/ClockSyncFM/n=7-2   1000   70000 ns/op   800 B/op   22 allocs/op",
		"BenchmarkBeat/ClockSyncFM/n=7-2   1000   80000 ns/op   800 B/op   21 allocs/op",
		"BenchmarkBeatMultiTenant/ClockSyncFM/n=4/T=1000-8   25   5e7 ns/op   2e4 tenant-beats/sec",
		"BenchmarkBeat/ClockSyncFM/n=4   5000   20000 ns/op",
	)
	if len(rs) != 3 {
		t.Fatalf("parsed %d entries, want 3: %+v", len(rs), rs)
	}
	beat := rs[0]
	if beat.Name != "BenchmarkBeat/ClockSyncFM/n=7" || beat.Procs != 2 {
		t.Fatalf("suffix not split: %+v", beat)
	}
	if beat.Runs != 3 || beat.NsPerOp != 80000 || beat.NsMin != 70000 || beat.NsMax != 90000 || beat.AllocsPerOp != 21 {
		t.Fatalf("runs not folded to medians: %+v", beat)
	}
	if mt := rs[1]; mt.Name != "BenchmarkBeatMultiTenant/ClockSyncFM/n=4/T=1000" || mt.Procs != 8 ||
		mt.Extra["tenant-beats/sec"] != 2e4 || mt.Runs != 0 {
		t.Fatalf("single run mis-parsed: %+v", mt)
	}
	if one := rs[2]; one.Name != "BenchmarkBeat/ClockSyncFM/n=4" || one.Procs != 1 {
		t.Fatalf("unsuffixed name must read as GOMAXPROCS 1: %+v", one)
	}
}

// TestGateMatchesAcrossProcs: a fresh multi-core run (…-2, …-8 names)
// compares against a baseline recorded without the suffix, or with a
// different one, so a regression fails the gate instead of reading as
// NEW and REMOVED; a baseline entry the new run lacks fails it too.
func TestGateMatchesAcrossProcs(t *testing.T) {
	dir := t.TempDir()
	fresh := func(lines ...string) string {
		return writeRun(t, dir, "new.json", parseLines(t, lines...))
	}
	unsuffixed := writeRun(t, dir, "old.json", []Result{
		{Name: "BenchmarkBeat/ClockSyncFM/n=7", Iterations: 1000, NsPerOp: 80000},
		{Name: "BenchmarkBeat/ClockSyncFM/n=16", Iterations: 100, NsPerOp: 900000},
	})
	suffixed := writeRun(t, dir, "old2.json", []Result{
		{Name: "BenchmarkBeat/ClockSyncFM/n=7-2", Iterations: 1000, NsPerOp: 80000},
		{Name: "BenchmarkBeat/ClockSyncFM/n=16-2", Iterations: 100, NsPerOp: 900000},
	})
	cases := []struct {
		name string
		old  string
		new  []string
		want int
	}{
		{"-2 run within threshold", unsuffixed, []string{
			"BenchmarkBeat/ClockSyncFM/n=7-2 1000 82000 ns/op",
			"BenchmarkBeat/ClockSyncFM/n=16-2 100 880000 ns/op",
		}, 0},
		{"-2 run regressed", unsuffixed, []string{
			"BenchmarkBeat/ClockSyncFM/n=7-2 1000 160000 ns/op",
			"BenchmarkBeat/ClockSyncFM/n=16-2 100 880000 ns/op",
		}, 1},
		{"-8 run against a -2 baseline", suffixed, []string{
			"BenchmarkBeat/ClockSyncFM/n=7-8 1000 79000 ns/op",
			"BenchmarkBeat/ClockSyncFM/n=16-8 100 600000 ns/op",
		}, 0},
		{"-8 run regressed against a -2 baseline", suffixed, []string{
			"BenchmarkBeat/ClockSyncFM/n=7-8 1000 79000 ns/op",
			"BenchmarkBeat/ClockSyncFM/n=16-8 100 1900000 ns/op",
		}, 1},
		{"baseline entry missing", unsuffixed, []string{
			"BenchmarkBeat/ClockSyncFM/n=7-2 1000 80000 ns/op",
		}, 1},
		{"new entry only added", unsuffixed, []string{
			"BenchmarkBeat/ClockSyncFM/n=7-2 1000 80000 ns/op",
			"BenchmarkBeat/ClockSyncFM/n=16-2 100 900000 ns/op",
			"BenchmarkBeatWorkers/ClockSyncFM/n=7/workers=auto-2 1000 80000 ns/op",
		}, 0},
	}
	for _, tc := range cases {
		if got := runGate(tc.old, fresh(tc.new...), 15, 25, 10); got != tc.want {
			t.Errorf("%s: gate returned %d, want %d", tc.name, got, tc.want)
		}
	}
}
