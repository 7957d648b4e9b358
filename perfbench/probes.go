package main

import (
	"fmt"
	"math/rand"
	"time"

	"ssbyzclock/internal/field"
	"ssbyzclock/internal/proto"
	"ssbyzclock/internal/sim"
	"ssbyzclock/internal/wire"
)

// fillSeconds is how long a traced run measures each stack its own
// workload does not run, so every traced run reports every layer at its
// workload's shape.
const fillSeconds = 1.0

// probeSeconds bounds each standalone field or wire probe loop.
const probeSeconds = 0.2

// captureBeats is how many beats of honest traffic the wire probe's
// message mix is captured from.
const captureBeats = 64

// protocolTrace is the input of protocolLayers: one traced stack's spans
// and the throughput of the stack untraced and traced.
type protocolTrace struct {
	tr                    *tracer
	base                  nodeRec // spans before the measured beats
	coin                  coinTally
	plainRate, tracedRate float64
}

// protocolLayers reports the protocol stack's layers from node and coin
// spans — core (node self time, coin excluded) and coin — and the
// tracing overhead.
func protocolLayers(rep *report, p protocolTrace) {
	sp := p.tr.spans().sub(p.base)
	rep.set("core.compose_ns_per_node_beat", float64(sp.composeNs-sp.coinComposeNs)/float64(sp.composes), "ns", countNote(int(sp.composes), "node-beats"))
	rep.set("core.deliver_ns_per_node_beat", float64(sp.deliverNs-sp.coinDeliverNs)/float64(sp.delivers), "ns", "")
	rep.set("coin.compose_ns_per_node_beat", float64(sp.coinComposeNs)/float64(sp.composes), "ns", "")
	rep.set("coin.deliver_ns_per_node_beat", float64(sp.coinDeliverNs)/float64(sp.delivers), "ns", "")
	rep.set("coin.agree_share", p.coin.share(), "share", countNote(int(p.coin.beats), "beats"))
	rep.set("trace.overhead_share", 1-p.tracedRate/p.plainRate, "share",
		fmt.Sprintf("untraced %.6g/s, traced %.6g/s", p.plainRate, p.tracedRate))
}

// probeLayers runs the standalone field and wire probes at shape sh.
func probeLayers(sh shape, seed int64, rep *report) {
	fieldProbe(sh, seed, rep)
	wireProbe(sh, seed, rep)
}

// fieldProbe times the two kernels GVSS runs at shape sh on random
// inputs from seed: MultiEval.EvalGridT at the share (n·(f+1) columns)
// and echo (n² columns) widths, and SecretDecoder.DecodeAt0Grid over an
// n×n grid of honest dealings, whose secrets it checks.
func fieldProbe(sh shape, seed int64, rep *report) {
	n, f := sh.n, sh.f
	w := f + 1
	rng := rand.New(rand.NewSource(seed))
	me := field.MultiEvalFor(n, f)
	randElems := func(k int) []field.Elem {
		out := make([]field.Elem, k)
		for i := range out {
			out[i] = field.Elem(rng.Uint64() % field.P)
		}
		return out
	}
	var terms, evalNs int64
	for _, nR := range []int{n * w, n * n} {
		coefT, dst := randElems(w*nR), make([]field.Elem, n*nR)
		end := time.Now().Add(time.Duration(probeSeconds / 2 * float64(time.Second)))
		t0 := time.Now()
		for calls := 0; calls < 16 || time.Now().Before(end); calls++ {
			me.EvalGridT(dst, coefT, w, nR)
			terms += int64(n * w * nR)
		}
		evalNs += int64(time.Since(t0))
	}
	rep.set("field.eval_ns_per_term", float64(evalNs)/float64(terms), "ns", countNote(int(terms), "terms"))

	dealings := n * n
	xs := make([]field.Elem, n)
	grids := make([][]field.Elem, n)
	for i := range xs {
		xs[i] = field.Elem(i + 1)
		grids[i] = make([]field.Elem, dealings)
	}
	secrets := make([]field.Elem, dealings)
	for d := 0; d < dealings; d++ {
		p := field.RandomPoly(rng, f, field.Elem(rng.Uint64()%field.P))
		secrets[d] = p.Eval(0)
		for i := range xs {
			grids[i][d] = p.Eval(xs[i])
		}
	}
	sd := field.NewSecretDecoder(me)
	out, ok := make([]field.Elem, dealings), make([]bool, dealings)
	var decoded, decodeNs int64
	end := time.Now().Add(time.Duration(probeSeconds * float64(time.Second)))
	t0 := time.Now()
	for calls := 0; calls < 16 || time.Now().Before(end); calls++ {
		sd.DecodeAt0Grid(xs, grids, n, n, f, f, out, ok)
		decoded += int64(dealings)
	}
	decodeNs = int64(time.Since(t0))
	for d := range secrets {
		if !ok[d] || out[d] != secrets[d] {
			rep.violate("field: DecodeAt0Grid dealing %d decoded %d (ok %v), dealt %d", d, out[d], ok[d], secrets[d])
			break
		}
	}
	rep.set("field.decode_ns_per_secret", float64(decodeNs)/float64(decoded), "ns", countNote(int(decoded), "secrets"))
}

// captureMix replays the workload's engine (shape sh, seed) through its
// warm-up and records the honest nodes' composed messages for
// captureBeats beats. It returns the messages (deep copies) and the
// honest node-beats they came from.
func captureMix(sh shape, seed int64) ([]proto.Message, int) {
	tr := &tracer{}
	e := sim.New(engineConfig(sh, seed), nodeFactory(sh, tr))
	e.ScrambleHonest()
	e.Run(warmBeats)
	var mix []proto.Message
	for _, id := range e.HonestIDs() {
		e.Node(id).(wrappedNode).base().capture = &mix
	}
	e.Run(captureBeats)
	return mix, len(e.HonestIDs()) * captureBeats
}

// wireProbe encodes and decodes the captured message mix with the wire
// codec, checks every message round-trips to the same bytes, and
// reports the mix's volume per node-beat and the codec's cost per
// message.
func wireProbe(sh shape, seed int64, rep *report) {
	mix, nodeBeats := captureMix(sh, seed)
	encoded := make([][]byte, len(mix))
	var bytes int
	for i, m := range mix {
		b, err := wire.Encode(m)
		if err != nil {
			rep.violate("wire: encode %s: %v", m.Kind(), err)
			return
		}
		encoded[i] = b
		bytes += len(b)
	}
	rep.set("wire.msgs_per_node_beat", float64(len(mix))/float64(nodeBeats), "count", countNote(nodeBeats, "node-beats"))
	rep.set("wire.bytes_per_node_beat", float64(bytes)/float64(nodeBeats), "B", "")

	var buf []byte
	var msgs int64
	end := time.Now().Add(time.Duration(probeSeconds * float64(time.Second)))
	t0 := time.Now()
	for rounds := 0; rounds < 4 || time.Now().Before(end); rounds++ {
		for _, m := range mix {
			buf, _ = wire.AppendTo(buf[:0], m)
		}
		msgs += int64(len(mix))
	}
	rep.set("wire.encode_ns_per_msg", float64(time.Since(t0))/float64(msgs), "ns", countNote(int(msgs), "messages"))

	msgs = 0
	end = time.Now().Add(time.Duration(probeSeconds * float64(time.Second)))
	t0 = time.Now()
	for rounds := 0; rounds < 4 || time.Now().Before(end); rounds++ {
		for _, b := range encoded {
			if _, err := wire.Decode(b); err != nil {
				rep.violate("wire: decode: %v", err)
				return
			}
		}
		msgs += int64(len(encoded))
	}
	rep.set("wire.decode_ns_per_msg", float64(time.Since(t0))/float64(msgs), "ns", countNote(int(msgs), "messages"))
	for i, b := range encoded {
		m, _ := wire.Decode(b)
		again, err := wire.Encode(m)
		if err != nil || string(again) != string(b) {
			rep.violate("wire: message %d (%s) does not round-trip", i, mix[i].Kind())
			return
		}
	}
}

func sampleNote(q quantile) string {
	return fmt.Sprintf("n=%d, %d beyond", q.N, q.Beyond)
}

func countNote(n int, what string) string { return fmt.Sprintf("%d %s", n, what) }
