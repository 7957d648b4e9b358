package main

import (
	goruntime "runtime"
	"time"

	"ssbyzclock"
	"ssbyzclock/internal/coin"
	"ssbyzclock/internal/multi"
	"ssbyzclock/internal/runtime"
)

// publicStack steps the public ssbyzclock.Cluster. Episodes scramble
// with ScrambleHonest and step until synchronized for holdBeats beats,
// the rule of Cluster.RunUntilSynced, with each Step timed.
type publicStack struct {
	c       *ssbyzclock.Cluster
	seed    int64
	honestN int
	scrams  int64
	last    ssbyzclock.BeatResult
	err     error
}

func (s *publicStack) scramble() {
	s.scrams++
	s.c.ScrambleHonest(s.seed*1_000_003 + s.scrams)
}

func (s *publicStack) step() time.Duration {
	t0 := time.Now()
	res, err := s.c.Step()
	d := time.Since(t0)
	if err != nil && s.err == nil {
		s.err = err
	}
	s.last = res
	return d
}

func (s *publicStack) honest(dst []uint64) []uint64 {
	return append(dst, s.last.Clocks[:s.honestN]...)
}

// publicConfig is the public API's spelling of shape sh.
func publicConfig(sh shape, seed int64) (ssbyzclock.Config, ssbyzclock.ClusterOptions) {
	opts := ssbyzclock.ClusterOptions{ScrambleStart: true}
	if sh.splitter {
		opts.Adversary = ssbyzclock.AdvSplitter
	}
	return ssbyzclock.Config{N: sh.n, F: sh.f, K: sh.k, Coin: ssbyzclock.CoinFM, Layout: ssbyzclock.LayoutShared, Seed: seed}, opts
}

// clusterSession builds the public Cluster setupReps times (closing all
// but the last), reads the resident heap around the kept one's build
// and warm-up, and returns it with the set-up samples.
func clusterSession(sh shape, seed int64) (*publicStack, []float64, float64, error) {
	cfg, opts := publicConfig(sh, seed)
	build := func() (*ssbyzclock.Cluster, float64, error) {
		goruntime.GC()
		t0 := time.Now()
		c, err := ssbyzclock.NewCluster(cfg, opts)
		return c, time.Since(t0).Seconds(), err
	}
	var setup []float64
	for r := 0; r < setupReps-1; r++ {
		c, d, err := build()
		if err != nil {
			return nil, nil, 0, err
		}
		c.Close()
		setup = append(setup, d)
	}
	before := multi.LiveHeap()
	c, d, err := build()
	if err != nil {
		return nil, nil, 0, err
	}
	setup = append(setup, d)
	s := &publicStack{c: c, seed: seed, honestN: sh.n - sh.f}
	for b := 0; b < warmBeats; b++ {
		s.step()
	}
	return s, setup, residentDelta(before, multi.LiveHeap()), s.err
}

func clusterRun(sh shape, o options, rep *report) {
	s, setup, resident, err := clusterSession(sh, o.seed)
	if err != nil {
		rep.violate("cluster-api: %v", err)
		return
	}
	defer s.c.Close()
	log := drive(s, sh.k, o.budget, engineConvergeEpisodes, deadline(o.seconds))
	if s.err != nil {
		rep.violate("cluster-api: %v", s.err)
	}
	lockstepEndToEnd(rep, log, setup, resident)
}

// runtimeStack steps the internal runtime.Cluster behind the public API,
// built exactly as ssbyzclock.NewCluster builds it but over decorated
// nodes — the traced twin of publicStack.
type runtimeStack struct {
	c       *runtime.Cluster
	honestN int
	scrams  int64
	seed    int64
	last    runtime.Snapshot
	err     error
	nodes   []*tracedNode
	coin    coinTally
}

func newRuntimeStack(sh shape, seed int64, tr *tracer) (*runtimeStack, error) {
	build := buildProtocol(sh)
	rc, err := runtime.New(runtime.Config{
		N: sh.n, F: sh.f, Seed: seed,
		NewProtocol:   tr.factory(coin.FMFactory{}, build),
		NewAdversary:  newAdversary(sh),
		ScrambleStart: true,
	})
	if err != nil {
		return nil, err
	}
	s := &runtimeStack{c: rc, honestN: sh.n - sh.f, seed: seed}
	s.nodes = tr.nodes[:s.honestN]
	return s, nil
}

func (s *runtimeStack) scramble() {
	s.scrams++
	s.c.ScrambleHonest(s.seed*1_000_003 + s.scrams)
}

func (s *runtimeStack) step() time.Duration {
	t0 := time.Now()
	snap, err := s.c.Step()
	d := time.Since(t0)
	if err != nil && s.err == nil {
		s.err = err
	}
	s.last = snap
	s.coin.observe(s.nodes)
	return d
}

func (s *runtimeStack) honest(dst []uint64) []uint64 {
	for _, c := range s.last.Clocks[:s.honestN] {
		dst = append(dst, c.Value)
	}
	return dst
}

// clusterLayers measures the runtime layer behind the public Cluster at
// shape sh: allocations per beat, and the Cluster's beat p50 above the
// engine's (enginP50, µs, from an untraced engine run of the same shape
// and seed). It returns the public run's log and throughput.
func clusterLayers(sh shape, o options, seconds, engineP50 float64, rep *report) (runLog, error) {
	s, _, _, err := clusterSession(sh, o.seed)
	if err != nil {
		rep.violate("cluster-api: %v", err)
		return runLog{}, err
	}
	defer s.c.Close()
	c0 := readCPU()
	log := drive(s, sh.k, o.budget, 1, deadline(seconds))
	c1 := readCPU()
	if s.err != nil {
		rep.violate("cluster-api: %v", s.err)
	}
	countEpisodes(rep, log)
	beats := float64(len(log.stepNs))
	rep.set("runtime.allocs_per_beat", float64(c1.mallocs-c0.mallocs)/beats, "count", countNote(len(log.stepNs), "beats"))
	rep.set("runtime.overhead_ns_per_beat", (p50us(log.stepNs)-engineP50)*1e3, "ns", "public Cluster p50 minus engine p50")
	return log, nil
}

func clusterTraced(sh shape, o options, rep *report) {
	// The engine run comes first: it gives the sim layer and the engine
	// p50 the runtime overhead is measured against.
	_, p50 := engineLayers(sh, o, fillSeconds, rep)
	plain, err := clusterLayers(sh, o, o.seconds/2, p50, rep)
	if err != nil {
		return
	}
	tr := &tracer{}
	s, err := newRuntimeStack(sh, o.seed, tr)
	if err != nil {
		rep.violate("cluster-api: %v", err)
		return
	}
	defer s.c.Close()
	for b := 0; b < warmBeats; b++ {
		s.step()
	}
	s.coin = coinTally{}
	base := tr.spans()
	traced := drive(s, sh.k, o.budget, plain.episodes, nil)
	if s.err != nil {
		rep.violate("cluster-api: %v", s.err)
	}
	checkReplay(rep, "cluster-api", plain, traced)
	countEpisodes(rep, traced)
	protocolLayers(rep, protocolTrace{
		tr: tr, base: base, coin: s.coin,
		plainRate: throughput(plain.stepNs), tracedRate: throughput(traced.stepNs),
	})
	multiLayers(o, fillSeconds, rep)
	realLayers(o.seed, fillSeconds, rep)
	probeLayers(sh, o.seed, rep)
}
