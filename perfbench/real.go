package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"ssbyzclock/internal/net"
	"ssbyzclock/internal/noderuntime"
	"ssbyzclock/internal/obs"
	"ssbyzclock/internal/proto"
)

// Real-mode run shape.
const (
	// realEpisodeBeats is the Real-mode episode length: every honest node
	// scrambles its own state after delivering the last beat of each
	// episode.
	realEpisodeBeats = 64
	// realWarmBeats every honest node delivers before the measured
	// window opens.
	realWarmBeats = 64
	// realRecordCap pre-sizes each node's beat log, so logging allocates
	// nothing inside the measured window.
	realRecordCap = 1 << 16
)

// beatRec is one delivered beat as a node's OnBeat observed it.
type beatRec struct {
	beat  uint64
	at    int64 // ns since the cluster's construction began
	clock uint64
}

// realRecorder logs every node's delivered beats from the nodes' own
// goroutines; progress lets the driver wait for the warm-up without
// touching the logs.
type realRecorder struct {
	origin   time.Time
	recs     [][]beatRec
	progress []atomic.Int64
	rngs     []*rand.Rand
}

func newRealRecorder(n int, seed int64) *realRecorder {
	r := &realRecorder{
		recs:     make([][]beatRec, n),
		progress: make([]atomic.Int64, n),
		rngs:     make([]*rand.Rand, n),
	}
	for i := range r.recs {
		r.recs[i] = make([]beatRec, 0, realRecordCap)
		r.rngs[i] = rand.New(rand.NewSource(seed*7919 + int64(i) + 1))
		r.progress[i].Store(-1)
	}
	return r
}

// onBeat is the cluster's OnBeat hook. It runs on node id's goroutine.
func (r *realRecorder) onBeat(id int, beat uint64, p proto.Protocol) {
	rec := beatRec{beat: beat, at: int64(time.Since(r.origin)), clock: noClock}
	if cr, ok := p.(proto.ClockReader); ok {
		if v, ok := cr.Clock(); ok {
			rec.clock = v
		}
	}
	r.recs[id] = append(r.recs[id], rec)
	r.progress[id].Store(int64(beat))
	if (beat+1)%realEpisodeBeats == 0 {
		if s, ok := p.(proto.Scrambler); ok {
			s.Scramble(r.rngs[id])
		}
	}
}

// realLog is the analysis of one Real-mode run.
type realLog struct {
	nodeBeats int   // honest node-beats delivered in the window
	allBeats  int   // every node's delivered beats, whole run
	gaps      int   // honest node-beats skipped in the window
	runNs     int64 // construction to stop
	converge  []int
	episodes  int
	failedEps int // episodes with no synchronized streak of hold+closure beats
	breaks    int // synchronized streaks broken after an episode converged
}

// runReal binds a loopback UDP transport, runs a Real-mode cluster of
// shape sh on it (nodes decorated by tr, instrumented by reg, endpoints
// by the returned transport decorator), waits for the warm-up and
// measures a window of about seconds.
func runReal(sh shape, seed int64, seconds float64, tr *tracer, reg *obs.Registry) (realLog, *tracedTransport, uint64, error) {
	rec := newRealRecorder(sh.n, seed)
	rec.origin = time.Now()
	udp, err := net.NewLoopbackUDP(sh.n, 0)
	if err != nil {
		return realLog{}, nil, 0, fmt.Errorf("bind loopback UDP: %w", err)
	}
	tt := &tracedTransport{inner: udp}
	cl, err := noderuntime.NewCluster(noderuntime.ClusterConfig{
		N: sh.n, F: sh.f, Seed: seed, Mode: noderuntime.Real,
		Factory:       nodeFactory(sh, tr),
		ScrambleStart: true,
		Transport:     tt,
		OnBeat:        rec.onBeat,
		Metrics:       reg,
	})
	if err != nil {
		udp.Close()
		return realLog{}, nil, 0, fmt.Errorf("build cluster: %w", err)
	}
	cl.Start()
	for id := 0; id < sh.n-sh.f; id++ {
		for rec.progress[id].Load() < realWarmBeats {
			time.Sleep(time.Millisecond)
		}
	}
	start := int64(time.Since(rec.origin))
	time.Sleep(time.Duration(seconds * float64(time.Second)))
	end := int64(time.Since(rec.origin))
	cl.Stop()
	log := analyzeReal(rec, sh, start, end)
	log.runNs = int64(time.Since(rec.origin))
	return log, tt, cl.Stats().Dropped, nil
}

// analyzeReal turns the node logs into gap and episode figures. Only the
// window [start, end) counts for delivered and skipped node-beats; every
// episode the honest nodes completed counts for convergence.
//
// An episode converges at the start of its first synchronized,
// incrementing streak of holdBeats+closureBeats beats, and fails if it
// has none. A later break of agreement in the same episode is counted,
// not failed: Real mode delivers a beat once n-f peers are complete, so
// honest nodes can act on different message sets for a beat, and the
// runtime promises convergence, not the engine's lockstep closure.
func analyzeReal(r *realRecorder, sh shape, start, end int64) realLog {
	var l realLog
	honest := sh.n - sh.f
	last := ^uint64(0)
	for id := range r.recs {
		recs := r.recs[id]
		l.allBeats += len(recs)
		if id >= honest {
			continue
		}
		if len(recs) == 0 {
			last = 0
			continue
		}
		if b := recs[len(recs)-1].beat; b < last {
			last = b
		}
		for i := 1; i < len(recs); i++ {
			if recs[i].at < start || recs[i].at >= end {
				continue
			}
			l.nodeBeats++
			l.gaps += int(recs[i].beat - recs[i-1].beat - 1)
		}
	}
	// Per-beat honest clocks, by beat index.
	clock := make([][]uint64, honest)
	for id := 0; id < honest; id++ {
		clock[id] = make([]uint64, last+1)
		for b := range clock[id] {
			clock[id][b] = noClock
		}
		for _, rec := range r.recs[id] {
			if rec.beat <= last {
				clock[id][rec.beat] = rec.clock
			}
		}
	}
	agreed := func(b uint64) (uint64, bool) {
		v := clock[0][b]
		for id := 1; id < honest; id++ {
			if clock[id][b] != v {
				return 0, false
			}
		}
		return v, v != noClock
	}
	for e := uint64(0); honest > 0 && (e+1)*realEpisodeBeats-1 <= last; e++ {
		first, final := e*realEpisodeBeats, (e+1)*realEpisodeBeats-1
		converge, streak := 0, 0
		var prev uint64
		prevOK := false
		for b := first; b <= final; b++ {
			v, ok := agreed(b)
			good := ok && (!prevOK || v == (prev+1)%sh.k)
			prev, prevOK = v, ok
			switch {
			case good:
				streak++
			case converge > 0 && streak > 0:
				l.breaks++
				streak = 0
			default:
				streak = 0
			}
			if converge == 0 && streak == holdBeats+closureBeats {
				converge = int(b-first) - streak + 2
			}
		}
		l.episodes++
		if converge == 0 {
			l.failedEps++
			continue
		}
		l.converge = append(l.converge, converge)
	}
	return l
}

// countReal adds a Real-mode run's work to the report: the honest
// node-beats delivered in the window and the episodes, of which one that
// never converges fails. Beats a lagging node skipped to rejoin the
// quorum (the runtime's catch-up) and agreement breaks after convergence
// are printed, not failed: Real mode advances on n-f peers by design,
// and on a two-CPU host a node regularly falls two beats behind and
// fast-forwards.
func countReal(rep *report, log realLog) {
	rep.detail("net-real: %d honest node-beats delivered, %d skipped by catch-up; %d of %d episodes never converged; %d agreement breaks after convergence",
		log.nodeBeats, log.gaps, log.failedEps, log.episodes, log.breaks)
	rep.attempted += log.nodeBeats + log.episodes
	rep.failed += log.failedEps
}

// realShape is the Real-mode cluster the net and noderuntime layers are
// measured on: n=4, f=1 over loopback UDP on an ideal network. Real mode
// runs every id as an ordinary node, so there is no adversary.
var realShape = shape{n: 4, f: 1, k: 64}

// realLayers measures the transport and node-runtime layers on a traced
// Real-mode cluster, the mode cmd/clocknode deploys.
func realLayers(seed int64, seconds float64, rep *report) {
	sh := realShape
	tr := &tracer{}
	reg := obs.NewRegistry()
	log, tt, injected, err := runReal(sh, seed, seconds, tr, reg)
	if err != nil {
		rep.violate("net-real: %v", err)
		return
	}
	countReal(rep, log)

	frames, sendNs, dropped := tt.totals()
	nodeBeats := float64(log.allBeats)
	rep.set("net.frames_per_node_beat", float64(frames)/nodeBeats, "count", countNote(log.allBeats, "node-beats"))
	rep.set("net.send_ns_per_frame", float64(sendNs)/float64(frames), "ns", countNote(int(frames), "frames"))
	rep.set("net.dropped_frames", float64(dropped+injected), "count", "")

	var wait []uint64
	var retrans, timeouts, skipped float64
	for _, s := range reg.Snapshot() {
		switch s.Name {
		case "ssbyz_node_quorum_wait_ms":
			wait = addBins(wait, s.Hist.N(), s.Hist.CountGreater)
		case "ssbyz_node_retransmits_total":
			retrans += s.Value
		case "ssbyz_node_beat_timeouts_total":
			timeouts += s.Value
		case "ssbyz_node_catchup_skipped_beats_total":
			skipped += s.Value
		}
	}
	p50, p99 := binQuantile(wait, 0.5), binQuantile(wait, 0.99)
	rep.set("noderuntime.quorum_wait_p50_ms", p50.Value, "ms", sampleNote(p50)+", 1 ms bins interpolated")
	rep.set("noderuntime.quorum_wait_p99_ms", p99.Value, "ms", sampleNote(p99)+", 1 ms bins interpolated")
	rep.set("noderuntime.retransmits_per_beat", retrans/nodeBeats, "count", "")
	rep.set("noderuntime.beat_timeouts", timeouts, "count", "")
	rep.set("noderuntime.catchup_skipped_beats", skipped, "count", "")

	busyPerBeat := float64(tr.spans().busyNs()) / nodeBeats
	meanInterval := float64(log.runNs) / (nodeBeats / float64(sh.n))
	rep.set("noderuntime.protocol_busy_share", busyPerBeat/meanInterval, "share", "")
}

// addBins adds a histogram's per-value counts, recovered from its
// count-above function, into bins.
func addBins(bins []uint64, n int, countGreater func(float64) int) []uint64 {
	below := n
	for v := 0; below > 0; v++ {
		above := countGreater(float64(v))
		if v >= len(bins) {
			bins = append(bins, 0)
		}
		bins[v] += uint64(below - above)
		below = above
	}
	return bins
}
