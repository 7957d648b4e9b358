package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"ssbyzclock/internal/coin"
	"ssbyzclock/internal/core"
	"ssbyzclock/internal/net"
	"ssbyzclock/internal/proto"
	"ssbyzclock/internal/sim"
)

// replayStacks drives an untraced engine with Step and a decorated one
// through the phased API on the same config, and fails unless both
// replay one trajectory.
func replayStacks(t *testing.T, cfg sim.Config, k uint64, workers int, build func(proto.Env, coin.Factory) proto.Protocol, coins coin.Factory) *tracer {
	t.Helper()
	cfg.Workers = workers
	plain := drive(newEngineStack(sim.New(cfg, func(env proto.Env) proto.Protocol { return build(env, coins) })), k, defaultBudget, 12, nil)
	tr := &tracer{}
	ph := newPhasedEngine(sim.New(cfg, tr.factory(coins, build)), workers)
	traced := drive(ph, k, defaultBudget, 12, nil)
	rep := newReport()
	checkReplay(rep, "test", plain, traced)
	if len(rep.violations) > 0 || plain.failed > 0 {
		t.Fatalf("workers=%d: %v (failed %d)", workers, rep.violations, plain.failed)
	}
	sp := tr.spans()
	if sp.composes == 0 || sp.coinComposeNs == 0 || sp.coinDeliverNs == 0 {
		t.Fatalf("workers=%d: decorators recorded nothing: %+v", workers, sp)
	}
	return tr
}

// The decorators forward every optional interface the program finds by
// type assertion (BeatEnder, Scrambler, ClockReader, BitReader,
// WordFlipper, Recycler with unwrapping): a traced run replays the
// untraced one exactly at one and two workers, for the clock-sync stack
// over a recycling coin (FM), over a coin factory without Renew
// (Rabin), and for the 2-clock, whose nodes are BitReaders, in the
// paper layout.
func TestTracedRunReplaysUntraced(t *testing.T) {
	n4 := shape{n: 4, f: 1, k: 64, splitter: true}
	for _, workers := range []int{1, 2} {
		replayStacks(t, engineConfig(n4, 7), 64, workers, buildProtocol(n4), coin.FMFactory{})
		replayStacks(t, engineConfig(n4, 8), 64, workers, buildProtocol(n4), coin.RabinFactory{Seed: 8})
		twoClock := func(env proto.Env, coins coin.Factory) proto.Protocol {
			return core.NewTwoClockLayout(env, coins, core.VariantCorrect, core.LayoutPaper)
		}
		tr := replayStacks(t, sim.Config{N: 4, F: 1, Seed: 9}, 2, workers, twoClock, coin.FMFactory{})
		if _, ok := proto.Protocol(tr.nodes[0]).(proto.BitReader); ok {
			t.Fatal("base decorator must not claim BitReader")
		}
	}
}

type plainFlipper struct{}

func (plainFlipper) Rounds() int               { return 1 }
func (plainFlipper) Compose(int) []proto.Send  { return nil }
func (plainFlipper) Deliver(int, []proto.Recv) {}
func (plainFlipper) Output() byte              { return 1 }

type plainFactory struct{}

func (plainFactory) Rounds() int                        { return 1 }
func (plainFactory) New(proto.Env, uint64) coin.Flipper { return plainFlipper{} }

func TestDecoratorsExposeExactlyTheWrappedInterfaces(t *testing.T) {
	env := proto.Env{N: 4, F: 1, ID: 0, Rng: rand.New(rand.NewSource(1))}
	for _, p := range []proto.Protocol{
		core.NewClockSyncLayout(env, 64, coin.FMFactory{}, false, core.LayoutShared),
		core.NewTwoClockLayout(env, coin.FMFactory{}, core.VariantCorrect, core.LayoutShared),
	} {
		w := wrapNode(p, &nodeRec{})
		_, innerBit := p.(proto.BitReader)
		_, wrapBit := w.(proto.BitReader)
		_, innerRand := p.(randBitReader)
		_, wrapRand := w.(randBitReader)
		if innerBit != wrapBit || innerRand != wrapRand {
			t.Errorf("%T: BitReader %v→%v, RandBit %v→%v", p, innerBit, wrapBit, innerRand, wrapRand)
		}
		for _, ok := range []bool{is[proto.BeatEnder](w), is[proto.Scrambler](w), is[proto.ClockReader](w)} {
			if !ok {
				t.Errorf("%T: decorator lost a node interface", p)
			}
		}
	}

	rec := &nodeRec{}
	fm := wrapCoins(coin.FMFactory{}, rec)
	if !is[coin.Recycler](fm) {
		t.Fatal("FM decorator must be a Recycler")
	}
	if is[coin.Recycler](wrapCoins(coin.RabinFactory{}, rec)) || is[coin.Recycler](wrapCoins(plainFactory{}, rec)) {
		t.Fatal("decorator of a factory without Renew must not be a Recycler")
	}
	if is[coin.WordFlipper](wrapCoins(plainFactory{}, rec).New(env, 0)) {
		t.Fatal("decorator of a flipper without OutputWord must not be a WordFlipper")
	}
	old := fm.New(env, 0)
	if !is[coin.WordFlipper](old) {
		t.Fatal("FM flipper decorator must be a WordFlipper")
	}
	inner := old.(*tracedWordFlipper).inner
	renewed := fm.(coin.Recycler).Renew(old, env, 1)
	if renewed != old || renewed.(*tracedWordFlipper).inner != inner {
		t.Fatal("Renew must hand the wrapped factory its own retired flipper and reuse the decorator")
	}
	if foreign := fm.(coin.Recycler).Renew(plainFlipper{}, env, 1); !is[*tracedWordFlipper](foreign) {
		t.Fatalf("Renew of a foreign flipper returned %T", foreign)
	}
}

func is[T any](v any) bool {
	_, ok := v.(T)
	return ok
}

func TestTracedTransportCountsFrames(t *testing.T) {
	tt := &tracedTransport{inner: net.NewChanTransport(2, 0)}
	a, err := tt.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tt.Endpoint(1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := a.Send(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if frames, _, dropped := tt.totals(); frames != 3 || dropped != 0 {
		t.Fatalf("frames %d dropped %d, want 3 and 0", frames, dropped)
	}
}

// runBench runs the command in-process and returns its exit code and
// parsed result line.
func runBench(t *testing.T, args ...string) (int, result, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := benchMain(args, &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s%s", err, out.String(), errOut.String())
	}
	return code, res, out.String()
}

func TestCommandPrintsEveryEndToEndMetric(t *testing.T) {
	code, res, out := runBench(t, "--workload", "engine-n7", "--seed", "3", "--seconds", "0.1")
	if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("exit %d, result %+v\n%s", code, res, out)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var want, got []string
	for _, m := range spec.EndToEnd {
		want = append(want, m.Name+" "+m.Unit)
	}
	for name, v := range res.Metrics {
		got = append(got, name+" "+v.Unit)
		if v.Value <= 0 {
			t.Errorf("%s = %v, want a positive reading", name, v.Value)
		}
	}
	sort.Strings(want)
	sort.Strings(got)
	if strings.Join(want, ",") != strings.Join(got, ",") {
		t.Fatalf("metrics %v, BENCHMARK.json declares %v", got, want)
	}
	if !strings.Contains(out, "failed_share") {
		t.Fatal("failed_share is not printed")
	}
}

// A budget too short for any episode to converge must show as failed
// work, an incorrect result and a non-zero exit.
func TestShortBudgetFailsTheRun(t *testing.T) {
	code, res, out := runBench(t, "--workload", "engine-n7", "--seed", "3", "--seconds", "0.05", "--budget", "2")
	if code == 0 || res.Correct || res.Failed == 0 || res.Failed > res.Attempted {
		t.Fatalf("exit %d, result %+v\n%s", code, res, out)
	}
}

// converge_beats_mean repeats exactly for a fixed seed, whatever the
// run length.
func TestConvergeMeanRepeatsPerSeed(t *testing.T) {
	_, a, _ := runBench(t, "--workload", "engine-n7", "--seed", "5", "--seconds", "0.05")
	_, b, _ := runBench(t, "--workload", "engine-n7", "--seed", "5", "--seconds", "0.3")
	if x, y := a.Metrics["converge_beats_mean"].Value, b.Metrics["converge_beats_mean"].Value; x != y {
		t.Fatalf("converge_beats_mean %v then %v", x, y)
	}
}

func TestPercentileReportsSampleCount(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i)
	}
	q := nearestRank(xs, 0.99)
	if q.Value != 198 || q.N != 200 || q.Beyond != 2 {
		t.Fatalf("p99 of 1..200 = %+v", q)
	}
	if note := sampleNote(q); !strings.Contains(note, "n=200, 2 beyond") {
		t.Fatalf("note %q lacks the sample count", note)
	}
	empty := nearestRank(nil, 0.5)
	if note := sampleNote(empty); empty.N != 0 || !strings.Contains(note, "n=0") {
		t.Fatalf("note %q lacks the sample count", note)
	}
	b := binQuantile([]uint64{6, 2, 2}, 0.5)
	if b.N != 10 || b.Value <= 0 || b.Value >= 1 {
		t.Fatalf("binned median %+v, want N=10 inside bin 0", b)
	}
}

func TestCompareRefusesUnlikeMachines(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, fp fingerprint) string {
		p := filepath.Join(dir, name)
		rep := newReport()
		rep.attempted = 1
		rep.set("beats_per_s", 100, "1/s", "")
		if err := appendRecord(p, fp, options{workload: "engine-n7", seed: 1}, rep); err != nil {
			t.Fatal(err)
		}
		return p
	}
	here := machineFingerprint()
	other := here
	other.NProc++
	base, same, diff := write("base", here), write("same", here), write("diff", other)
	var out, errOut bytes.Buffer
	if code := compareMain([]string{base, same}, &out, &errOut); code != 0 {
		t.Fatalf("like machines: exit %d: %s", code, errOut.String())
	}
	if code := compareMain([]string{base, diff}, &out, &errOut); code != 3 {
		t.Fatalf("unlike machines: exit %d, want 3", code)
	}
	if !strings.Contains(errOut.String(), "refusing") {
		t.Fatalf("no refusal message: %q", errOut.String())
	}
}

// analyzeReal counts skipped node-beats, converges each episode at its
// first long synchronized streak, fails one without such a streak, and
// counts a later break without failing the episode.
func TestAnalyzeRealCountsGapsAndEpisodes(t *testing.T) {
	sh := shape{n: 4, f: 1, k: 64}
	r := newRealRecorder(4, 1)
	for id := 0; id < 4; id++ {
		for b := uint64(0); b < 3*realEpisodeBeats; b++ {
			if id == 0 && b == 2*realEpisodeBeats+60 {
				continue // a catch-up skip late in episode 2: a break
			}
			c := b % 64
			switch {
			case b < 5 && id == 1:
				c = 33 // episode 0 synchronizes from beat 5
			case b >= realEpisodeBeats && b < 2*realEpisodeBeats && b%2 == 0 && id == 2:
				c = 40 // episode 1 never holds
			}
			r.recs[id] = append(r.recs[id], beatRec{beat: b, at: int64(b) * 1000, clock: c})
		}
	}
	l := analyzeReal(r, sh, 0, 1<<40)
	if l.gaps != 1 || l.episodes != 3 || l.failedEps != 1 || l.breaks != 1 || len(l.converge) != 2 || l.converge[0] != 6 || l.converge[1] != 1 {
		t.Fatalf("gaps %d episodes %d failed %d breaks %d converge %v", l.gaps, l.episodes, l.failedEps, l.breaks, l.converge)
	}
}

// A hold that breaks inside its closure window is premature: it is
// counted, and convergence is the next hold that survives the window.
// An episode that reaches no such hold within its budget fails.
func TestEpisodePrematureHoldAndBudget(t *testing.T) {
	ep := newEpisode(64, 100)
	var vals []uint64
	for v := uint64(0); v < 8; v++ {
		vals = append(vals, v) // held from beat 1
	}
	vals = append(vals, 0) // every clock jumps 7 -> 0 together
	for v := uint64(1); v <= 16; v++ {
		vals = append(vals, v)
	}
	for _, v := range vals {
		ep.observe(v, true)
	}
	if !ep.done || ep.failed || ep.premature != 1 || ep.converge != 10 {
		t.Fatalf("done %v failed %v premature %d converge %d", ep.done, ep.failed, ep.premature, ep.converge)
	}
	ep = newEpisode(64, 5)
	for i := 0; i < 5; i++ {
		ep.observe(0, false)
	}
	if !ep.done || !ep.failed {
		t.Fatalf("unsynchronized episode: done %v failed %v", ep.done, ep.failed)
	}
}
