package main

import (
	"runtime"
	"time"

	"ssbyzclock/internal/multi"
	"ssbyzclock/internal/proto"
	"ssbyzclock/internal/sim"
)

// engineConvergeEpisodes is how many leading episodes converge_beats_mean
// averages on the single-engine stacks, so it repeats exactly per seed.
const engineConvergeEpisodes = 300

// engineStack steps a sim.Engine with Step — the untraced path.
type engineStack struct {
	e       *sim.Engine
	readers []proto.ClockReader
}

func newEngineStack(e *sim.Engine) *engineStack {
	s := &engineStack{e: e}
	for _, id := range e.HonestIDs() {
		cr, _ := e.Node(id).(proto.ClockReader)
		s.readers = append(s.readers, cr)
	}
	return s
}

func (s *engineStack) scramble() { s.e.ScrambleHonest() }

func (s *engineStack) step() time.Duration {
	t0 := time.Now()
	s.e.Step()
	return time.Since(t0)
}

func (s *engineStack) honest(dst []uint64) []uint64 { return readClocks(s.readers, dst) }

// readClocks appends each reader's clock (noClock when undefined or
// when the node is not a clock).
func readClocks(rs []proto.ClockReader, dst []uint64) []uint64 {
	for _, r := range rs {
		v, ok := uint64(0), false
		if r != nil {
			v, ok = r.Clock()
		}
		if !ok {
			v = noClock
		}
		dst = append(dst, v)
	}
	return dst
}

// phasedEngine steps a decorated sim.Engine through its phased API —
// ComposeNode, ExchangePhase, DeliverNode, FinishBeat — fanned out on a
// sim.NewScheduler exactly as Step does, timing each phase. The engine
// documents this sequence as byte-identical to Step.
type phasedEngine struct {
	*engineStack
	sched            *sim.Scheduler
	compose, deliver func(*sim.WorkerScratch, int)
	nodes            []*tracedNode // honest nodes, for coin agreement
	coin             coinTally

	composeNs, exchangeNs, deliverNs, finishNs int64
	beats                                      int64
}

func newPhasedEngine(e *sim.Engine, workers int) *phasedEngine {
	p := &phasedEngine{engineStack: newEngineStack(e), sched: sim.NewScheduler(workers)}
	p.compose = func(_ *sim.WorkerScratch, i int) { e.ComposeNode(i) }
	p.deliver = func(_ *sim.WorkerScratch, i int) { e.DeliverNode(i) }
	for _, id := range e.HonestIDs() {
		p.nodes = append(p.nodes, e.Node(id).(wrappedNode).base())
	}
	return p
}

func (p *phasedEngine) step() time.Duration {
	n := p.e.N()
	t0 := time.Now()
	p.sched.ForEach(n, p.compose)
	t1 := time.Now()
	p.e.ExchangePhase()
	t2 := time.Now()
	p.sched.ForEach(n, p.deliver)
	t3 := time.Now()
	p.e.FinishBeat()
	t4 := time.Now()
	p.composeNs += int64(t1.Sub(t0))
	p.exchangeNs += int64(t2.Sub(t1))
	p.deliverNs += int64(t3.Sub(t2))
	p.finishNs += int64(t4.Sub(t3))
	p.beats++
	p.coin.observe(p.nodes)
	return t4.Sub(t0)
}

// workers is the scheduler's effective fan-out for one phase.
func (p *phasedEngine) workers() int {
	w := p.sched.Workers()
	if n := p.e.N(); w > n {
		w = n
	}
	return w
}

// coinTally counts beats whose honest coin bits all agree.
type coinTally struct{ beats, agree int64 }

func (c *coinTally) observe(nodes []*tracedNode) {
	c.beats++
	var first byte
	for i, nd := range nodes {
		b, ok := nd.randBit()
		if !ok {
			return
		}
		if i == 0 {
			first = b
		} else if b != first {
			return
		}
	}
	c.agree++
}

func (c coinTally) share() float64 {
	if c.beats == 0 {
		return 0
	}
	return float64(c.agree) / float64(c.beats)
}

// buildEngine builds and scrambles one engine, returning it with its
// set-up time. Every timed set-up starts from a collected heap, so a
// collection left over from earlier work does not land inside it.
func buildEngine(sh shape, seed int64, tr *tracer) (*sim.Engine, float64) {
	runtime.GC()
	t0 := time.Now()
	e := sim.New(engineConfig(sh, seed), nodeFactory(sh, tr))
	e.ScrambleHonest()
	return e, time.Since(t0).Seconds()
}

// engineSession builds setupReps engines (the last one is kept), reads
// the resident heap around the kept one's build and warm-up, and
// returns it with the set-up samples and the resident bytes.
func engineSession(sh shape, seed int64, tr *tracer) (*sim.Engine, []float64, float64) {
	var setup []float64
	for r := 0; r < setupReps-1; r++ {
		_, d := buildEngine(sh, seed, nil)
		setup = append(setup, d)
	}
	before := multi.LiveHeap()
	e, d := buildEngine(sh, seed, tr)
	setup = append(setup, d)
	e.Run(warmBeats)
	resident := residentDelta(before, multi.LiveHeap())
	return e, setup, resident
}

func engineRun(sh shape, o options, rep *report) {
	e, setup, resident := engineSession(sh, o.seed, nil)
	log := drive(newEngineStack(e), sh.k, o.budget, engineConvergeEpisodes, deadline(o.seconds))
	lockstepEndToEnd(rep, log, setup, resident)
}

// engineLayers runs the untraced engine for about seconds, then its
// traced phased twin for the same episodes, checks that both replay one
// trajectory, and reports the sim layer. It returns the traced run's
// protocol trace and the untraced run's beat p50 in µs.
func engineLayers(sh shape, o options, seconds float64, rep *report) (protocolTrace, float64) {
	e, _, _ := engineSession(sh, o.seed, nil)
	plain := drive(newEngineStack(e), sh.k, o.budget, 1, deadline(seconds))
	tr := &tracer{}
	te, _, _ := engineSession(sh, o.seed, tr)
	ph := newPhasedEngine(te, 0)
	base := tr.spans()
	c0 := readCPU()
	traced := drive(ph, sh.k, o.budget, plain.episodes, nil)
	c1 := readCPU()
	checkReplay(rep, "engine", plain, traced)
	countEpisodes(rep, plain, traced)

	b := float64(ph.beats)
	rep.set("sim.compose_ns", float64(ph.composeNs)/b, "ns", countNote(int(ph.beats), "beats"))
	rep.set("sim.exchange_ns", float64(ph.exchangeNs)/b, "ns", "")
	rep.set("sim.deliver_ns", float64(ph.deliverNs)/b, "ns", "")
	rep.set("sim.finish_ns", float64(ph.finishNs)/b, "ns", "")
	sp := tr.spans().sub(base)
	idle := float64(ph.workers())*float64(ph.composeNs+ph.deliverNs) - float64(sp.busyNs())
	rep.set("sim.fanout_idle_ns", idle/b, "ns", countNote(ph.workers(), "workers"))
	rep.set("sim.allocs_per_beat", float64(c1.mallocs-c0.mallocs)/b, "count", "")
	return protocolTrace{
		tr: tr, base: base, coin: ph.coin,
		plainRate: throughput(plain.stepNs), tracedRate: throughput(traced.stepNs),
	}, p50us(plain.stepNs)
}

func engineTraced(sh shape, o options, rep *report) {
	pt, p50 := engineLayers(sh, o, o.seconds/2, rep)
	protocolLayers(rep, pt)
	multiLayers(o, fillSeconds, rep)
	realLayers(o.seed, fillSeconds, rep)
	clusterLayers(sh, o, fillSeconds, p50, rep)
	probeLayers(sh, o.seed, rep)
}

// checkReplay records a violation unless the traced run replayed the
// untraced twin's clock trajectory and episode outcomes exactly.
func checkReplay(rep *report, what string, plain, traced runLog) {
	if plain.trajHash != traced.trajHash || plain.episodes != traced.episodes ||
		plain.failed != traced.failed || len(plain.converge) != len(traced.converge) {
		rep.violate("%s: traced run diverged from its untraced twin (hash %x vs %x, %d vs %d episodes)",
			what, plain.trajHash, traced.trajHash, plain.episodes, traced.episodes)
		return
	}
	for i := range plain.converge {
		if plain.converge[i] != traced.converge[i] {
			rep.violate("%s: traced episode %d converged in %d beats, untraced in %d",
				what, i, traced.converge[i], plain.converge[i])
			return
		}
	}
}

// countEpisodes adds the runs' episodes to the report's attempted and
// failed work, and prints the premature holds.
func countEpisodes(rep *report, logs ...runLog) {
	for _, l := range logs {
		rep.attempted += l.episodes
		rep.failed += l.failed
		rep.detail("%d episodes, %d failed, %d premature holds", l.episodes, l.failed, l.premature)
	}
}

func sum(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

// throughput is beats per second of program time.
func throughput(stepNs []int64) float64 {
	return float64(len(stepNs)) / (float64(sum(stepNs)) / 1e9)
}

// p50us is the nearest-rank median of per-beat times, in µs.
func p50us(stepNs []int64) float64 {
	us := make([]float64, len(stepNs))
	for i, ns := range stepNs {
		us[i] = float64(ns) / 1e3
	}
	return nearestRank(us, 0.5).Value
}
