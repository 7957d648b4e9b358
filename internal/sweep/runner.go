package sweep

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"

	"ssbyzclock/internal/adversary"
	"ssbyzclock/internal/coin"
	"ssbyzclock/internal/core"
	"ssbyzclock/internal/faultnet"
	"ssbyzclock/internal/multi"
	"ssbyzclock/internal/net"
	"ssbyzclock/internal/noderuntime"
	"ssbyzclock/internal/proto"
	"ssbyzclock/internal/sim"
)

// adversaryRegistry maps grid adversary names to constructors. Every
// entry is self-contained — constructable from the adversary.Context
// alone — which since the bit-oracle variants includes the strongest
// oracle-equipped attacks: BitOracleSplitter and BitOraclePhase3 read
// the public coin bit from a faulty node's own honest copy
// (Context.FaultyNode) instead of closing over a live engine, so E6/E7's
// oracle rows can be named in a serialized grid.
var adversaryRegistry = map[string]func(*adversary.Context) adversary.Adversary{
	"passive":  nil,
	"silent":   func(*adversary.Context) adversary.Adversary { return adversary.Silent{} },
	"splitter": func(ctx *adversary.Context) adversary.Adversary { return &adversary.ClockSplitter{Ctx: ctx} },
	"gradesplitter": func(ctx *adversary.Context) adversary.Adversary {
		return &adversary.GradeSplitter{Ctx: ctx}
	},
	"sharecorruptor": func(ctx *adversary.Context) adversary.Adversary {
		return &adversary.ShareCorruptor{Ctx: ctx}
	},
	"recovercorruptor": func(ctx *adversary.Context) adversary.Adversary {
		return &adversary.RecoverCorruptor{Ctx: ctx}
	},
	"replayer": func(ctx *adversary.Context) adversary.Adversary { return &adversary.Replayer{Ctx: ctx} },
	// stacked is E7's oracle-free core: clock splitting + grade splitting
	// + coin-recovery corruption in one chain.
	"stacked": func(ctx *adversary.Context) adversary.Adversary {
		return adversary.Chain{Advs: []adversary.Adversary{
			&adversary.ClockSplitter{Ctx: ctx},
			&adversary.GradeSplitter{Ctx: ctx},
			&adversary.RecoverCorruptor{Ctx: ctx},
		}}
	},
	"bitoraclesplitter": func(ctx *adversary.Context) adversary.Adversary {
		return adversary.NewBitOracleSplitter(ctx)
	},
	"bitoraclephase3": func(ctx *adversary.Context) adversary.Adversary {
		return adversary.NewBitOraclePhase3(ctx)
	},
	// bitoraclestacked is the full E7 kitchen sink, oracle included: the
	// strongest attack the suite can express, now nameable in a grid.
	"bitoraclestacked": func(ctx *adversary.Context) adversary.Adversary {
		return adversary.Chain{Advs: []adversary.Adversary{
			adversary.NewBitOracleSplitter(ctx),
			&adversary.GradeSplitter{Ctx: ctx},
			&adversary.RecoverCorruptor{Ctx: ctx},
		}}
	},
}

// adversaryNames returns the registry's keys, sorted, for error messages
// and CLI help.
func adversaryNames() string {
	names := make([]string, 0, len(adversaryRegistry))
	for k := range adversaryRegistry {
		names = append(names, k)
	}
	sort.Strings(names)
	return strings.Join(names, " ")
}

// Result is one unit's measured metrics, in the store's column order.
type Result struct {
	// Converged reports whether the run settled within MaxBeats.
	Converged bool
	// ConvBeats is the convergence beat, or MaxBeats when unconverged
	// (the in-process experiments' convention, a lower bound on truth).
	ConvBeats int
	// ClosureViolations counts beats at which a converged system lost
	// synchronization again (Definition 3.2's closure; 0 for a correct
	// protocol).
	ClosureViolations int
	// MsgsPerNodeBeat and BytesPerNodeBeat are honest traffic divided by
	// (n-f) honest nodes times executed beats. Networked units record 0:
	// their frames are tenant-batched per link, so the engine's
	// per-message counters have no wire counterpart there.
	MsgsPerNodeBeat  float64
	BytesPerNodeBeat float64
	// ResidentBytesPerTenant is the steady-state live-heap delta per
	// tenant for engine multitenant units (tenants > 1, net "engine"):
	// the service-capacity number the multitenant grid aggregates. 0 for
	// single-instance and networked units.
	ResidentBytesPerTenant float64
}

// encode packs the result into the store's fixed-width row (column
// order must match Metrics).
func (r Result) encode() [numMetrics]uint64 {
	var row [numMetrics]uint64
	if r.Converged {
		row[0] = 1
	}
	row[1] = uint64(r.ConvBeats)
	row[2] = uint64(r.ClosureViolations)
	row[3] = math.Float64bits(r.MsgsPerNodeBeat)
	row[4] = math.Float64bits(r.BytesPerNodeBeat)
	row[5] = math.Float64bits(r.ResidentBytesPerTenant)
	return row
}

// decodeResult is encode's inverse.
func decodeResult(row [numMetrics]uint64) Result {
	return Result{
		Converged:              row[0] != 0,
		ConvBeats:              int(row[1]),
		ClosureViolations:      int(row[2]),
		MsgsPerNodeBeat:        math.Float64frombits(row[3]),
		BytesPerNodeBeat:       math.Float64frombits(row[4]),
		ResidentBytesPerTenant: math.Float64frombits(row[5]),
	}
}

// Runner executes units. The zero value is ready to use.
type Runner struct {
	// Workers is sim.Config.Workers for each unit's engine: a pure
	// throughput knob — every worker count replays byte-identically, so
	// results are unaffected. 0 means auto (work-based fan-out, up to
	// GOMAXPROCS); N > 0 means exactly N.
	Workers int
}

// RunUnit executes one unit of g and returns its metrics. The engine
// seed, the coin setup seed and every other random choice derive from
// the unit alone, so re-running a unit — on any shard, in any process —
// reproduces its result bit-for-bit.
func (r Runner) RunUnit(g Grid, u Unit) (Result, error) {
	layout, err := core.ParseLayout(u.Layout)
	if err != nil {
		return Result{}, err
	}
	var factory coin.Factory
	switch g.Coin {
	case "fm":
		factory = coin.FMFactory{}
	case "rabin":
		factory = coin.RabinFactory{Seed: u.Seed(g)}
	default:
		return Result{}, fmt.Errorf("sweep: unknown coin %q", g.Coin)
	}
	var nodeFactory sim.NodeFactory
	switch g.Protocol {
	case "clocksync":
		nodeFactory = core.NewClockSyncProtocolLayout(g.K, factory, layout)
	case "clocksyncstale":
		nodeFactory = core.NewClockSyncStaleProtocolLayout(g.K, factory, layout)
	case "twoclock":
		nodeFactory = core.NewTwoClockProtocolLayout(factory, layout)
	case "fourclock":
		nodeFactory = core.NewFourClockProtocolLayout(factory, layout)
	default:
		return Result{}, fmt.Errorf("sweep: unknown protocol %q", g.Protocol)
	}
	mk, ok := adversaryRegistry[u.Adversary]
	if !ok {
		return Result{}, fmt.Errorf("sweep: unknown adversary %q", u.Adversary)
	}
	cfg := sim.Config{
		N: u.N, F: u.F, Seed: u.Seed(g),
		NewAdversary:  mk,
		ScrambleStart: true,
		CountBytes:    true,
		Workers:       r.Workers,
	}
	if u.Fault != "" && u.Fault != "none" {
		sched, err := faultnet.Parse(u.Fault)
		if err != nil {
			return Result{}, fmt.Errorf("sweep: unit %d fault %q: %w", u.Index, u.Fault, err)
		}
		// The schedule draws from the unit's own seed, so a faulted unit
		// replays bit-for-bit like an ideal one.
		sched.Seed = uint64(u.Seed(g))
		cfg.Links = sched
	}
	if u.Net != "" && u.Net != "engine" {
		return r.runNetworked(g, u, cfg, nodeFactory)
	}
	if g.Tenants > 1 {
		return r.runMultiTenant(g, u, cfg, nodeFactory)
	}
	e := sim.New(cfg, nodeFactory)
	res := sim.MeasureConvergence(e, g.protocolK(), g.MaxBeats, g.Hold)
	out := Result{
		Converged:         res.Converged,
		ClosureViolations: res.ClosureViolations,
		ConvBeats:         g.MaxBeats,
	}
	if res.Converged {
		out.ConvBeats = res.ConvergedAt
	}
	perNodeBeat := float64(u.N-u.F) * float64(res.Beats)
	if perNodeBeat > 0 {
		out.MsgsPerNodeBeat = float64(e.HonestMsgs) / perNodeBeat
		out.BytesPerNodeBeat = float64(e.HonestBytes) / perNodeBeat
	}
	return out, nil
}

// runMultiTenant measures the unit as g.Tenants independent instances
// multiplexed on one internal/multi engine (tenant t runs the unit
// config with Seed+t; a faulted unit's link schedule is shared, and
// pure, so tenants see the same network weather) and folds the
// per-tenant convergence results into the unit's one store row.
// The lockstep engine keeps stepping until the slowest tenant settles,
// so traffic is divided by the beats every tenant actually executed —
// honest nodes × engine beats × tenants.
func (r Runner) runMultiTenant(g Grid, u Unit, node sim.Config, factory sim.NodeFactory) (Result, error) {
	// Bracket the engine's lifetime with live-heap readings: whatever the
	// unit's run leaves resident, divided by tenants, is the
	// service-capacity column. Units run sequentially in a worker, so the
	// forced collections see only this engine's survivors on top of the
	// worker's constant baseline.
	before := multi.LiveHeap()
	m := multi.New(multi.Config{Tenants: g.Tenants, Workers: r.Workers, Node: node}, factory)
	results := multi.MeasureConvergence(m, g.protocolK(), g.MaxBeats, g.Hold)
	out := Result{Converged: true}
	for _, res := range results {
		cb := g.MaxBeats
		if res.Converged {
			cb = res.ConvergedAt
		} else {
			out.Converged = false
		}
		if cb > out.ConvBeats {
			out.ConvBeats = cb
		}
		out.ClosureViolations += res.ClosureViolations
	}
	perNodeBeat := float64(u.N-u.F) * float64(m.Beat()) * float64(g.Tenants)
	if perNodeBeat > 0 {
		out.MsgsPerNodeBeat = float64(m.HonestMsgs()) / perNodeBeat
		out.BytesPerNodeBeat = float64(m.HonestBytes()) / perNodeBeat
	}
	if after := multi.LiveHeap(); after > before {
		out.ResidentBytesPerTenant = float64(after-before) / float64(g.Tenants)
	}
	runtime.KeepAlive(m)
	return out, nil
}

// clockCell is one honest node's clock reading at the end of one beat.
type clockCell struct {
	val  uint64
	ok   bool
	seen bool
}

// runNetworked measures the unit as a Lockstep noderuntime cluster over
// real loopback sockets: tenants (min 1) instances multiplexed behind n
// event-loop endpoints exchanging tenant-batched frames, with the
// unit's fault schedule injected at the transport wrapper. Lockstep
// networked runs replay the engine byte-identically per tenant, so the
// convergence fold matches runMultiTenant's — the row demonstrates the
// same numbers surviving real sockets, real frame encoding and real
// fault injection.
func (r Runner) runNetworked(g Grid, u Unit, node sim.Config, factory sim.NodeFactory) (Result, error) {
	T := g.Tenants
	if T < 1 {
		T = 1
	}
	var tr net.Transport
	var err error
	switch u.Net {
	case "udp":
		tr, err = net.NewLoopbackUDP(u.N, 0)
	case "tcp":
		tr, err = net.NewLoopbackTCPSeeded(u.N, 0, u.Seed(g))
	default:
		return Result{}, fmt.Errorf("sweep: unknown net %q", u.Net)
	}
	if err != nil {
		return Result{}, fmt.Errorf("sweep: unit %d %s transport: %w", u.Index, u.Net, err)
	}
	// Trajectories: [tenant][beat][honest position] clock readings, in
	// HonestIDs order. Lockstep guarantees every honest node reports
	// every beat below MaxBeats exactly once.
	honest := make([]int, 0, u.N-u.F)
	pos := make([]int, u.N)
	for i := 0; i < u.N-u.F; i++ {
		pos[i] = len(honest)
		honest = append(honest, i)
	}
	traj := make([][][]clockCell, T)
	for t := range traj {
		traj[t] = make([][]clockCell, g.MaxBeats)
		for b := range traj[t] {
			traj[t][b] = make([]clockCell, len(honest))
		}
	}
	var mu sync.Mutex
	cl, err := noderuntime.NewMultiCluster(noderuntime.MultiClusterConfig{
		N: u.N, F: u.F, Tenants: T,
		Seed:          node.Seed,
		Factory:       factory,
		NewAdversary:  node.NewAdversary,
		ScrambleStart: true,
		Links:         node.Links,
		Transport:     tr,
		MaxBeats:      uint64(g.MaxBeats),
		OnBeat: func(tenant, id int, beat uint64, p proto.Protocol) {
			if beat >= uint64(g.MaxBeats) || id >= u.N-u.F {
				return
			}
			cell := clockCell{seen: true}
			if cr, ok := p.(proto.ClockReader); ok {
				cell.val, cell.ok = cr.Clock()
			}
			mu.Lock()
			traj[tenant][beat][pos[id]] = cell
			mu.Unlock()
		},
	})
	if err != nil {
		return Result{}, fmt.Errorf("sweep: unit %d: %w", u.Index, err)
	}
	cl.Start()
	cl.Wait()
	cl.Stop()
	// Fold each tenant's trajectory through the exact state machine of
	// sim.MeasureConvergence, then the multitenant fold across tenants.
	k := g.protocolK()
	out := Result{Converged: true}
	for t := 0; t < T; t++ {
		res := measureTrajectory(traj[t], k, g.Hold)
		cb := g.MaxBeats
		if res.Converged {
			cb = res.ConvergedAt
		} else {
			out.Converged = false
		}
		if cb > out.ConvBeats {
			out.ConvBeats = cb
		}
		out.ClosureViolations += res.ClosureViolations
	}
	return out, nil
}

// measureTrajectory replays sim.MeasureConvergence's state machine over
// a recorded per-beat clock trajectory: a beat is synced when every
// honest node reported a defined, common clock, and good when that
// common value also advanced by one mod k from the previous synced
// beat.
func measureTrajectory(beats [][]clockCell, k uint64, holdBeats int) sim.ConvergenceResult {
	res := sim.ConvergenceResult{ConvergedAt: -1}
	stableSince := -1
	var prev uint64
	havePrev := false
	for b, cells := range beats {
		res.Beats++
		v, ok := syncedCells(cells)
		good := ok && (!havePrev || v == (prev+1)%k)
		if ok {
			prev, havePrev = v, true
		} else {
			havePrev = false
		}
		if good {
			if stableSince < 0 {
				stableSince = b
			}
			if b-stableSince+1 >= holdBeats {
				res.Converged = true
				res.ConvergedAt = stableSince
				return res
			}
		} else {
			if stableSince >= 0 {
				res.ClosureViolations++
			}
			stableSince = -1
		}
	}
	return res
}

// syncedCells reports whether every honest reading in the beat is
// present, defined and equal, and the common value.
func syncedCells(cells []clockCell) (uint64, bool) {
	if len(cells) == 0 {
		return 0, false
	}
	ref := cells[0]
	if !ref.seen || !ref.ok {
		return 0, false
	}
	for _, c := range cells[1:] {
		if !c.seen || !c.ok || c.val != ref.val {
			return 0, false
		}
	}
	return ref.val, true
}

// ExecuteShard runs every not-yet-completed unit assigned to the given
// shard (unit index mod shards), in ascending index order, appending
// each result to the store as soon as it is measured — so a killed sweep
// loses at most the unit in flight, and a restart skips everything
// already recorded (by ANY prior shard layout: completion is tracked per
// unit, not per shard). maxUnits > 0 stops after that many fresh units —
// the deterministic stand-in for an interruption in tests and the CI
// smoke. Cancelling ctx is the graceful interruption: the unit in
// flight finishes and is recorded, the chunk file is flushed, and
// ExecuteShard returns the count so far with ctx's error — everything
// recorded survives for the resume. Returns the number of units
// executed.
func ExecuteShard(ctx context.Context, st *Store, shard, shards int, r Runner, maxUnits int, progress func(Unit, Result)) (int, error) {
	if shards <= 0 || shard < 0 || shard >= shards {
		return 0, fmt.Errorf("sweep: bad shard %d of %d", shard, shards)
	}
	done, _, err := st.Completed()
	if err != nil {
		return 0, err
	}
	g := st.Grid()
	w, err := st.ShardWriter(shard, shards)
	if err != nil {
		return 0, err
	}
	defer w.Close()
	ran := 0
	for idx := shard; idx < g.Units(); idx += shards {
		if done[idx] {
			continue
		}
		if maxUnits > 0 && ran >= maxUnits {
			break
		}
		if err := ctx.Err(); err != nil {
			if cerr := w.Close(); cerr != nil {
				return ran, cerr
			}
			return ran, err
		}
		u := g.UnitAt(idx)
		res, err := r.RunUnit(g, u)
		if err != nil {
			return ran, fmt.Errorf("sweep: unit %d: %w", idx, err)
		}
		if err := w.Append(idx, res.encode()); err != nil {
			return ran, err
		}
		ran++
		if progress != nil {
			progress(u, res)
		}
	}
	return ran, w.Close()
}
