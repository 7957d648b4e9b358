// Command sweep plans, executes, merges and reports sharded experiment
// sweeps (internal/sweep): the scale-out path for the E-series
// experiments and the large-n / adversary-grid workloads the in-process
// harness cannot hold.
//
// Usage:
//
//	sweep -store DIR [flags] <plan|run|merge|report|all>
//
//	plan    initialize DIR from -grid FILE (a sweep.Grid JSON) or
//	        -exp NAME (a named E-series grid; -runs/-maxbeats/-hold
//	        override its defaults). Re-planning an existing store with
//	        the same grid is a no-op; a different grid is an error.
//	run     execute work units. -shards M -shard I runs one shard of a
//	        manual (possibly multi-machine) layout; -procs P spawns P
//	        worker processes on this machine, one shard each. Completed
//	        units are skipped, so run resumes after any interruption;
//	        -max-units U stops after U fresh units (an interruption
//	        stand-in for tests).
//	merge   assemble the final column files. Requires every unit
//	        complete; the output is byte-identical for every shard
//	        layout and completion order.
//	report  print the per-cell aggregate table from the merged columns.
//	all     plan + run + merge + report.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"syscall"

	"ssbyzclock/internal/experiments"
	"ssbyzclock/internal/sweep"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		store    = flag.String("store", "", "store directory (required)")
		gridFile = flag.String("grid", "", "grid JSON file (plan)")
		exp      = flag.String("exp", "", fmt.Sprintf("named E-series grid (plan): %s", strings.Join(experiments.SweepGridNames(), " ")))
		runs     = flag.Int("runs", 0, "override -exp seeds per cell (0 = experiment default)")
		maxBeats = flag.Int("maxbeats", 0, "override -exp per-run beat cap")
		hold     = flag.Int("hold", 0, "override -exp convergence hold")
		shards   = flag.Int("shards", 1, "total shard count (run)")
		shard    = flag.Int("shard", 0, "this process's shard index (run)")
		procs    = flag.Int("procs", 0, "spawn this many worker processes, one shard each (run)")
		workers  = flag.Int("workers", 1, "sim.Config.Workers per unit engine (0 = auto: work-based, up to GOMAXPROCS; N = exactly N)")
		maxUnits = flag.Int("max-units", 0, "stop after this many fresh units (0 = no limit; simulates interruption)")
		verbose  = flag.Bool("v", false, "print per-unit progress")
	)
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: sweep -store DIR [flags] <plan|run|merge|report|all>")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 || *store == "" {
		flag.Usage()
		return 2
	}
	cmd := flag.Arg(0)
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		return 1
	}

	// SIGINT/SIGTERM interrupt the sweep gracefully: the unit in flight
	// finishes and is recorded, chunk files are flushed, and a later run
	// resumes from exactly where this one stopped. A second signal kills
	// the process the hard way (NotifyContext restores default handling
	// once the context is done).
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	loadGrid := func() (sweep.Grid, error) {
		switch {
		case *gridFile != "" && *exp != "":
			return sweep.Grid{}, fmt.Errorf("give -grid or -exp, not both")
		case *gridFile != "":
			b, err := os.ReadFile(*gridFile)
			if err != nil {
				return sweep.Grid{}, err
			}
			var g sweep.Grid
			if err := json.Unmarshal(b, &g); err != nil {
				return sweep.Grid{}, fmt.Errorf("%s: %w", *gridFile, err)
			}
			return g, nil
		case *exp != "":
			return experiments.SweepGrid(*exp, experiments.Params{Runs: *runs, MaxBeats: *maxBeats, Hold: *hold})
		default:
			return sweep.Grid{}, fmt.Errorf("plan needs -grid FILE or -exp NAME")
		}
	}

	plan := func() (*sweep.Store, error) {
		g, err := loadGrid()
		if err != nil {
			return nil, err
		}
		st, err := sweep.Create(*store, g)
		if err != nil {
			return nil, err
		}
		fmt.Printf("planned %d units in %s (grid %.12s)\n", st.Units(), st.Dir(), st.Grid().Hash())
		return st, nil
	}

	shardsSet, shardSet, maxUnitsSet := false, false, false
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "shards":
			shardsSet = true
		case "shard":
			shardSet = true
		case "max-units":
			maxUnitsSet = true
		}
	})

	runShards := func(st *sweep.Store) error {
		if *procs > 1 {
			// Workers each own one of -procs shards and run to completion;
			// a manual layout or a unit cap cannot be forwarded coherently,
			// so reject the combination instead of silently ignoring it.
			if shardsSet || shardSet || maxUnitsSet {
				return fmt.Errorf("-procs cannot be combined with -shards/-shard/-max-units")
			}
			return spawnWorkers(ctx, *store, *procs, *workers, *verbose)
		}
		r := sweep.Runner{Workers: *workers}
		var progress func(sweep.Unit, sweep.Result)
		if *verbose {
			progress = func(u sweep.Unit, res sweep.Result) {
				fmt.Printf("unit %d/%d n=%d adv=%s layout=%s fault=%s seed=%d: converged=%v beats=%d\n",
					u.Index, st.Units(), u.N, u.Adversary, u.Layout, u.Fault, u.SeedIdx, res.Converged, res.ConvBeats)
			}
		}
		ran, err := sweep.ExecuteShard(ctx, st, *shard, *shards, r, *maxUnits, progress)
		interrupted := errors.Is(err, context.Canceled)
		if err != nil && !interrupted {
			return err
		}
		_, doneCount, cerr := st.Completed()
		if cerr != nil {
			return cerr
		}
		fmt.Printf("shard %d/%d: ran %d units; %d/%d complete\n", *shard, *shards, ran, doneCount, st.Units())
		if interrupted {
			return fmt.Errorf("interrupted; everything recorded so far is kept — re-run to resume")
		}
		return nil
	}

	switch cmd {
	case "plan":
		if _, err := plan(); err != nil {
			return fail(err)
		}
	case "run":
		st, err := sweep.Open(*store)
		if err != nil {
			return fail(err)
		}
		if err := runShards(st); err != nil {
			return fail(err)
		}
	case "merge":
		st, err := sweep.Open(*store)
		if err != nil {
			return fail(err)
		}
		if err := st.Merge(); err != nil {
			return fail(err)
		}
		fmt.Printf("merged %d units into %s/columns\n", st.Units(), st.Dir())
	case "report":
		st, err := sweep.Open(*store)
		if err != nil {
			return fail(err)
		}
		if err := sweep.Render(os.Stdout, st); err != nil {
			return fail(err)
		}
	case "all":
		st, err := plan()
		if err != nil {
			return fail(err)
		}
		if err := runShards(st); err != nil {
			return fail(err)
		}
		if err := st.Merge(); err != nil {
			return fail(err)
		}
		if err := sweep.Render(os.Stdout, st); err != nil {
			return fail(err)
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown command %q\n", cmd)
		flag.Usage()
		return 2
	}
	return 0
}

// spawnWorkers re-executes this binary as procs worker processes, one
// shard each, and waits for all of them. Workers share nothing but the
// store directory; each appends to its own chunk file, so a crashed or
// killed worker never corrupts another's output and the whole sweep can
// simply be re-run to resume. A cancelled ctx forwards SIGINT to every
// worker, which finishes its unit in flight and flushes before exiting.
func spawnWorkers(ctx context.Context, store string, procs, workers int, verbose bool) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	cmds := make([]*exec.Cmd, procs)
	for i := range cmds {
		args := []string{
			"-store", store,
			"-shards", fmt.Sprint(procs),
			"-shard", fmt.Sprint(i),
			"-workers", fmt.Sprint(workers),
		}
		if verbose {
			args = append(args, "-v")
		}
		args = append(args, "run")
		c := exec.Command(self, args...)
		c.Stdout = os.Stdout
		c.Stderr = os.Stderr
		if err := c.Start(); err != nil {
			// Don't leave already-started workers orphaned: a re-run would
			// race them on the same chunk files (and ShardWriter's
			// truncate-on-open could chop a record an orphan just wrote).
			for j := 0; j < i; j++ {
				cmds[j].Process.Kill()
				cmds[j].Wait()
			}
			return fmt.Errorf("worker %d: %w", i, err)
		}
		cmds[i] = c
	}
	stopForward := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			for _, c := range cmds {
				c.Process.Signal(os.Interrupt)
			}
		case <-stopForward:
		}
	}()
	var firstErr error
	for i, c := range cmds {
		if err := c.Wait(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("worker %d: %w", i, err)
		}
	}
	close(stopForward)
	if ctx.Err() != nil && firstErr != nil {
		return fmt.Errorf("interrupted; everything recorded so far is kept — re-run to resume")
	}
	return firstErr
}
