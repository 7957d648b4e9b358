package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"ssbyzclock/internal/coin"
	"ssbyzclock/internal/net"
	"ssbyzclock/internal/proto"
)

// The decorators in this file are the traced run's spans. They wrap the
// program's public interfaces from outside — a node's proto.Protocol, a
// coin.Factory's flippers, a net.Transport's endpoints — time each call
// and count its work, and otherwise forward everything, including every
// optional interface the program discovers by type assertion. Nothing
// inside the program changes; the replay checks compare each traced run
// with its untraced twin to show the decorators only observe.

// nodeRec accumulates one node's spans. A node's calls never run
// concurrently with each other (every stack drives a node from one
// goroutine per phase and orders phases with barriers or channels), so
// the fields need no synchronization; readers wait for the stack to be
// quiescent.
type nodeRec struct {
	composeNs, deliverNs         int64 // node spans, coin spans included
	coinComposeNs, coinDeliverNs int64 // coin flipper spans inside them
	composes, delivers           int64
}

// tracer hands out per-node recorders and keeps every node it wrapped,
// so totals and coin bits can be read once the stack is idle.
type tracer struct {
	mu    sync.Mutex
	nodes []*tracedNode
}

// spans sums every recorder.
func (t *tracer) spans() nodeRec {
	var s nodeRec
	for _, nd := range t.nodes {
		r := nd.rec
		s.composeNs += r.composeNs
		s.deliverNs += r.deliverNs
		s.coinComposeNs += r.coinComposeNs
		s.coinDeliverNs += r.coinDeliverNs
		s.composes += r.composes
		s.delivers += r.delivers
	}
	return s
}

// sub returns r minus an earlier reading of the same recorders.
func (r nodeRec) sub(b nodeRec) nodeRec {
	return nodeRec{
		composeNs: r.composeNs - b.composeNs, deliverNs: r.deliverNs - b.deliverNs,
		coinComposeNs: r.coinComposeNs - b.coinComposeNs, coinDeliverNs: r.coinDeliverNs - b.coinDeliverNs,
		composes: r.composes - b.composes, delivers: r.delivers - b.delivers,
	}
}

// busyNs is the summed node span time (compose plus deliver).
func (r nodeRec) busyNs() int64 { return r.composeNs + r.deliverNs }

// factory decorates a node factory: each node built gets its own
// recorder, its coin factory is wrapped to record into it, and the
// protocol it returns is wrapped too. newNode receives the wrapped coin
// factory and builds the real protocol.
func (t *tracer) factory(coins coin.Factory, newNode func(env proto.Env, coins coin.Factory) proto.Protocol) func(env proto.Env) proto.Protocol {
	return func(env proto.Env) proto.Protocol {
		rec := &nodeRec{}
		nd := wrapNode(newNode(env, wrapCoins(coins, rec)), rec)
		t.mu.Lock()
		t.nodes = append(t.nodes, nd.base())
		t.mu.Unlock()
		return nd
	}
}

// tracedNode times a protocol's Compose and Deliver. It also implements
// the optional node interfaces the program type-asserts with a neutral
// fallback that every call site treats exactly like an absent interface:
// EndBeat and Scramble do nothing, Clock reports (0, false) and Modulus
// 0. Bit and RandBit change what an assertion finds, so wrapNode adds
// them only when the wrapped protocol has them.
type tracedNode struct {
	inner proto.Protocol
	rec   *nodeRec
	// capture, when set, receives a deep copy of every composed message
	// (the wire probe's message mix).
	capture *[]proto.Message
}

func (t *tracedNode) base() *tracedNode { return t }

func (t *tracedNode) Compose(beat uint64) []proto.Send {
	t0 := time.Now()
	s := t.inner.Compose(beat)
	t.rec.composeNs += int64(time.Since(t0))
	t.rec.composes++
	if t.capture != nil {
		for _, snd := range s {
			if c, err := proto.Clone(snd.Msg); err == nil {
				*t.capture = append(*t.capture, c)
			}
		}
	}
	return s
}

func (t *tracedNode) Deliver(beat uint64, inbox []proto.Recv) {
	t0 := time.Now()
	t.inner.Deliver(beat, inbox)
	t.rec.deliverNs += int64(time.Since(t0))
	t.rec.delivers++
}

func (t *tracedNode) EndBeat() {
	if be, ok := t.inner.(proto.BeatEnder); ok {
		be.EndBeat()
	}
}

func (t *tracedNode) Scramble(rng *rand.Rand) {
	if s, ok := t.inner.(proto.Scrambler); ok {
		s.Scramble(rng)
	}
}

func (t *tracedNode) Clock() (uint64, bool) {
	if cr, ok := t.inner.(proto.ClockReader); ok {
		return cr.Clock()
	}
	return 0, false
}

func (t *tracedNode) Modulus() uint64 {
	if cr, ok := t.inner.(proto.ClockReader); ok {
		return cr.Modulus()
	}
	return 0
}

// randBit reads the wrapped protocol's coin bit for coin.agree_share.
func (t *tracedNode) randBit() (byte, bool) {
	if r, ok := t.inner.(randBitReader); ok {
		return r.RandBit(), true
	}
	return 0, false
}

// randBitReader is the clock-sync stack's coin-bit accessor, which the
// bit-oracle adversary also probes for.
type randBitReader interface{ RandBit() byte }

type tracedBitNode struct{ *tracedNode }

func (t tracedBitNode) Bit() byte { return t.inner.(proto.BitReader).Bit() }

type tracedRandNode struct{ *tracedNode }

func (t tracedRandNode) RandBit() byte { return t.inner.(randBitReader).RandBit() }

type tracedBitRandNode struct{ *tracedNode }

func (t tracedBitRandNode) Bit() byte     { return t.inner.(proto.BitReader).Bit() }
func (t tracedBitRandNode) RandBit() byte { return t.inner.(randBitReader).RandBit() }

// wrappedNode is what wrapNode returns: a protocol plus access to its
// recorder.
type wrappedNode interface {
	proto.Protocol
	base() *tracedNode
}

// wrapNode decorates p, exposing Bit and RandBit exactly when p does.
func wrapNode(p proto.Protocol, rec *nodeRec) wrappedNode {
	nd := &tracedNode{inner: p, rec: rec}
	_, bit := p.(proto.BitReader)
	_, rb := p.(randBitReader)
	switch {
	case bit && rb:
		return tracedBitRandNode{nd}
	case bit:
		return tracedBitNode{nd}
	case rb:
		return tracedRandNode{nd}
	}
	return nd
}

// wrapCoins decorates a coin factory so every flipper it makes records
// its spans into rec. The result implements coin.Recycler exactly when
// the wrapped factory does.
func wrapCoins(f coin.Factory, rec *nodeRec) coin.Factory {
	tc := tracedCoins{inner: f, rec: rec}
	if r, ok := f.(coin.Recycler); ok {
		return recyclingCoins{tracedCoins: tc, renew: r}
	}
	return tc
}

type tracedCoins struct {
	inner coin.Factory
	rec   *nodeRec
}

func (f tracedCoins) Rounds() int { return f.inner.Rounds() }

func (f tracedCoins) New(env proto.Env, beat uint64) coin.Flipper {
	return f.wrap(f.inner.New(env, beat))
}

// wrap decorates one flipper, exposing OutputWord exactly when it does.
func (f tracedCoins) wrap(fl coin.Flipper) coin.Flipper {
	tf := &tracedFlipper{inner: fl, rec: f.rec}
	if _, ok := fl.(coin.WordFlipper); ok {
		return &tracedWordFlipper{tf}
	}
	return tf
}

type recyclingCoins struct {
	tracedCoins
	renew coin.Recycler
}

// Renew unwraps the retired flipper so the wrapped factory sees (and
// can reuse) its own instance, then re-wraps the result in the retired
// decorator so recycling stays allocation-free.
func (f recyclingCoins) Renew(old coin.Flipper, env proto.Env, beat uint64) coin.Flipper {
	var tf *tracedFlipper
	switch o := old.(type) {
	case *tracedFlipper:
		tf = o
	case *tracedWordFlipper:
		tf = o.tracedFlipper
	}
	if tf == nil {
		return f.wrap(f.renew.Renew(old, env, beat))
	}
	fl := f.renew.Renew(tf.inner, env, beat)
	_, wasWord := tf.inner.(coin.WordFlipper)
	_, isWord := fl.(coin.WordFlipper)
	if wasWord != isWord {
		return f.wrap(fl)
	}
	tf.inner = fl
	return old
}

type tracedFlipper struct {
	inner coin.Flipper
	rec   *nodeRec
}

func (t *tracedFlipper) Rounds() int  { return t.inner.Rounds() }
func (t *tracedFlipper) Output() byte { return t.inner.Output() }

func (t *tracedFlipper) Compose(round int) []proto.Send {
	t0 := time.Now()
	s := t.inner.Compose(round)
	t.rec.coinComposeNs += int64(time.Since(t0))
	return s
}

func (t *tracedFlipper) Deliver(round int, inbox []proto.Recv) {
	t0 := time.Now()
	t.inner.Deliver(round, inbox)
	t.rec.coinDeliverNs += int64(time.Since(t0))
}

func (t *tracedFlipper) EndBeat() {
	if be, ok := t.inner.(proto.BeatEnder); ok {
		be.EndBeat()
	}
}

type tracedWordFlipper struct{ *tracedFlipper }

func (t *tracedWordFlipper) OutputWord() uint64 {
	return t.inner.(coin.WordFlipper).OutputWord()
}

// tracedTransport decorates a net.Transport: every endpoint it hands out
// times its Sends and counts frames. It sits under the runtime's fault
// wrapper, so it sees exactly the frames that reach the socket layer.
type tracedTransport struct {
	inner net.Transport
	mu    sync.Mutex
	eps   []*tracedEndpoint
}

func (t *tracedTransport) Endpoint(id int) (net.Endpoint, error) {
	ep, err := t.inner.Endpoint(id)
	if err != nil {
		return nil, err
	}
	te := &tracedEndpoint{Endpoint: ep}
	t.mu.Lock()
	t.eps = append(t.eps, te)
	t.mu.Unlock()
	return te, nil
}

func (t *tracedTransport) Close() error { return t.inner.Close() }

// totals sums frames, send time and queue drops over every endpoint.
func (t *tracedTransport) totals() (frames, sendNs, dropped uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, ep := range t.eps {
		frames += ep.frames.Load()
		sendNs += ep.sendNs.Load()
		dropped += ep.Dropped()
	}
	return frames, sendNs, dropped
}

type tracedEndpoint struct {
	net.Endpoint
	frames, sendNs atomic.Uint64
}

func (e *tracedEndpoint) Send(to int, frame []byte) error {
	t0 := time.Now()
	err := e.Endpoint.Send(to, frame)
	e.sendNs.Add(uint64(time.Since(t0)))
	e.frames.Add(1)
	return err
}
