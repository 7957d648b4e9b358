package main

import (
	"runtime"
	"runtime/metrics"
	"sort"

	"ssbyzclock/internal/adversary"
	"ssbyzclock/internal/coin"
	"ssbyzclock/internal/core"
	"ssbyzclock/internal/proto"
	"ssbyzclock/internal/sim"
)

// shape is the protocol input every stack of a workload runs: cluster
// size, Byzantine bound, clock modulus, and whether the lockstep stacks
// put the ClockSplitter adversary on the last f nodes. Every stack runs
// ss-Byz-Clock-Sync over the FM coin in the shared coin layout.
type shape struct {
	n, f     int
	k        uint64
	splitter bool
}

// workload is one named benchmark input: its end-to-end run and its
// traced run.
type workload struct {
	run, traced func(options, *report)
}

var workloads map[string]workload

func init() {
	n7 := shape{n: 7, f: 2, k: 64, splitter: true}
	workloads = map[string]workload{
		"engine-n7": {
			run:    func(o options, r *report) { engineRun(n7, o, r) },
			traced: func(o options, r *report) { engineTraced(n7, o, r) },
		},
		"cluster-api-n7": {
			run:    func(o options, r *report) { clusterRun(n7, o, r) },
			traced: func(o options, r *report) { clusterTraced(n7, o, r) },
		},
	}
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Run-shape constants shared by the lockstep workloads.
const (
	// setupReps is how many times a run builds its stack to time set-up;
	// setup_s is the median.
	setupReps = 15
	// warmBeats run between build and the resident-heap reading, so lazy
	// allocations (pools, scratch, pipeline slots) have happened.
	warmBeats = 16
	// defaultBudget is the beats an episode may take to reach its hold.
	defaultBudget = 1000
)

// buildProtocol builds one ss-Byz-Clock-Sync node of shape sh over the
// given coin factory.
func buildProtocol(sh shape) func(env proto.Env, coins coin.Factory) proto.Protocol {
	return func(env proto.Env, coins coin.Factory) proto.Protocol {
		return core.NewClockSyncLayout(env, sh.k, coins, false, core.LayoutShared)
	}
}

// nodeFactory is the node factory for sh, decorated when tr is non-nil.
func nodeFactory(sh shape, tr *tracer) sim.NodeFactory {
	build := buildProtocol(sh)
	if tr == nil {
		return func(env proto.Env) proto.Protocol { return build(env, coin.FMFactory{}) }
	}
	return tr.factory(coin.FMFactory{}, build)
}

// newAdversary is the workload's adversary constructor (nil: passive).
func newAdversary(sh shape) func(*adversary.Context) adversary.Adversary {
	if !sh.splitter {
		return nil
	}
	return func(ctx *adversary.Context) adversary.Adversary { return &adversary.ClockSplitter{Ctx: ctx} }
}

// engineConfig is the sim.Config of shape sh under seed, default
// Workers and pooling.
func engineConfig(sh shape, seed int64) sim.Config {
	return sim.Config{N: sh.n, F: sh.f, Seed: seed, NewAdversary: newAdversary(sh)}
}

// residentDelta is the growth between two multi.LiveHeap readings (the
// reading multi.MeasureFootprint takes).
func residentDelta(before, after uint64) float64 {
	if after < before {
		return 0
	}
	return float64(after - before)
}

// lockstepEndToEnd reports the end-to-end metrics of a lockstep run:
// throughput over the program's own beat time, per-beat percentiles,
// the convergence mean over the first engineConvergeEpisodes episodes,
// set-up and resident memory.
func lockstepEndToEnd(rep *report, log runLog, setup []float64, resident float64) {
	us := make([]float64, len(log.stepNs))
	for i, ns := range log.stepNs {
		us[i] = float64(ns) / 1e3
	}
	reportBeats(rep, throughput(log.stepNs), us)
	conv := log.converge
	if len(conv) > engineConvergeEpisodes {
		conv = conv[:engineConvergeEpisodes]
	}
	rep.set("converge_beats_mean", meanInt(conv), "beats", countNote(len(conv), "episodes"))
	rep.set("resident_bytes_per_tenant", resident, "B", "one instance")
	rep.set("setup_s", median(setup), "s", countNote(len(setup), "set-ups"))
	countEpisodes(rep, log)
}

// reportBeats reports throughput in beats per second and the
// percentiles of the per-beat times us.
func reportBeats(rep *report, bps float64, us []float64) {
	rep.set("beats_per_s", bps, "1/s", "")
	for _, q := range []struct {
		name string
		q    float64
	}{{"beat_p50_us", 0.50}, {"beat_p90_us", 0.90}, {"beat_p99_us", 0.99}} {
		p := nearestRank(us, q.q)
		rep.set(q.name, p.Value, "us", sampleNote(p))
	}
}

// cpuReading is a snapshot of the process's allocation count and of the
// runtime's estimates of GC CPU time and total available CPU time.
type cpuReading struct {
	mallocs         uint64
	gcCPU, totalCPU float64
}

func readCPU() cpuReading {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	r := cpuReading{mallocs: ms.Mallocs}
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		r.totalCPU = samples[1].Value.Float64()
	}
	return r
}
