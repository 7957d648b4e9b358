package sim

import (
	"reflect"
	"runtime"
	"sync"
	"time"
)

// Scheduler fans per-node-independent phase work over a bounded worker
// count. The paper's beat system makes Compose and Deliver independent
// across nodes within a phase (Section 2: all round-r messages are
// exchanged between the two phases), so the engine hands each phase to
// ForEach and synchronizes on its return.
//
// Width: an explicit worker count N fans every phase out exactly N ways.
// The default (auto) mode instead decides each fan-out from the work
// it has measured at that call site: a phase too small to pay for a
// goroutine spawn and wake-up runs inline, and larger phases split
// into blocks of at least minWorkPerWorker each, up to GOMAXPROCS.
//
// Determinism: every per-index closure writes only to its own index's
// output slot, and blocks are contiguous index ranges, so a run is
// byte-identical for every width, including 1 — the measured timings
// that steer auto mode change only where time goes, never the output.
// Each concurrently running block owns a private WorkerScratch, giving
// phase closures allocation-free access to per-goroutine buffers.
//
// ForEach must not be called concurrently on one Scheduler, nor from
// inside one of its own closures.
type Scheduler struct {
	workers int
	auto    bool
	scratch []*WorkerScratch
	sites   [siteSlots]siteWork
	next    int // round-robin eviction cursor into sites
}

// WorkerScratch is the per-worker scratch arena handed to every phase
// closure. Buffers grow on demand and are reused across beats; they must
// not be retained beyond the closure invocation.
type WorkerScratch struct {
	// Buf is a reusable byte buffer (wire encoding during CountBytes
	// accounting).
	Buf []byte
}

// minWorkPerWorker is the least measured phase work auto mode hands to
// each worker, sized from the BenchmarkBeatWorkers crossover on a
// 2-CPU host. There a second worker's spawn and wake-up costs more
// than it saves while the compose and deliver phases take up to
// ~150 µs (n ≤ 10), ties near ~250 µs (n = 13) and wins from ~500 µs
// (n ≥ 16), so a phase gets its second worker at 2×minWorkPerWorker.
const minWorkPerWorker = 100 * time.Microsecond

// siteSlots bounds the per-call-site work table. The engine has four
// fan-out sites and the multi-tenant driver one; a scheduler that sees
// more evicts round-robin, which only costs a re-measured inline call.
const siteSlots = 8

// siteWork is one call site's estimate of a phase's total work, keyed
// by the closure's code pointer (fresh closures from the same literal
// share it). work == 0 means not yet measured.
type siteWork struct {
	pc   uintptr
	work time.Duration
}

// NewScheduler builds a scheduler. A positive worker count fans every
// phase out exactly that many ways; 0 (or any non-positive value)
// selects auto mode, which sizes each fan-out from the phase's
// measured work, up to runtime.GOMAXPROCS(0) workers.
func NewScheduler(workers int) *Scheduler {
	auto := workers <= 0
	if auto {
		workers = runtime.GOMAXPROCS(0)
	}
	return newScheduler(workers, auto)
}

func newScheduler(workers int, auto bool) *Scheduler {
	s := &Scheduler{workers: workers, auto: auto, scratch: make([]*WorkerScratch, workers)}
	for i := range s.scratch {
		s.scratch[i] = &WorkerScratch{}
	}
	return s
}

// Workers returns the configured worker count: the exact fan-out of an
// explicit scheduler, the upper bound of an auto one.
func (s *Scheduler) Workers() int { return s.workers }

// WorkerFor returns the block of a static contiguous partition of
// [0, n) into min(Workers(), n) blocks that item i falls in. The
// multi-tenant engine binds each tenant's pool arena and evaluation
// batcher to its block and then runs ForEach over the blocks, so every
// block's resources are touched by one invocation per fan-out. With an
// explicit worker count ForEach(n, ·) uses the same partition, but in
// auto mode it may run fewer, larger blocks, so WorkerFor does not name
// the goroutine that processes item i.
func (s *Scheduler) WorkerFor(n, i int) int {
	w := s.workers
	if w > n {
		w = n
	}
	if w <= 1 {
		return 0
	}
	chunk := (n + w - 1) / w
	return i / chunk
}

// ForEach invokes fn(ws, i) for every i in [0, n) and returns when all
// invocations have finished. At width 1 it runs inline on the calling
// goroutine — zero overhead and trivially sequential. Otherwise indices
// are split into contiguous blocks, one per worker; the caller's
// goroutine processes block 0 while the remaining blocks run on fresh
// goroutines. The width is the explicit worker count, or in auto mode
// autoWidth of the call site's measured work. fn must confine its
// writes to per-index data (plus its own WorkerScratch) and must not
// panic across goroutines.
func (s *Scheduler) ForEach(n int, fn func(ws *WorkerScratch, i int)) {
	w := s.workers
	if w > n {
		w = n
	}
	if w <= 1 {
		s.inline(n, fn)
		return
	}
	if !s.auto {
		s.fanOut(n, w, fn)
		return
	}
	site := s.site(reflect.ValueOf(fn).Pointer())
	if w = autoWidth(site.work, w); w <= 1 {
		t0 := time.Now()
		s.inline(n, fn)
		site.observe(time.Since(t0))
		return
	}
	site.observe(s.fanOut(n, w, fn))
}

// autoWidth is auto mode's width rule: one worker per minWorkPerWorker
// of estimated phase work, clamped to [1, workers]. An unmeasured site
// (work 0) runs inline, which is also its first measurement.
func autoWidth(work time.Duration, workers int) int {
	w := int(work / minWorkPerWorker)
	if w > workers {
		w = workers
	}
	if w < 1 {
		w = 1
	}
	return w
}

// observe folds one call's measured total work into the site's
// estimate: the first sample is taken as is, later ones through an
// EWMA with weight 1/4.
func (w *siteWork) observe(sample time.Duration) {
	if w.work == 0 {
		w.work = sample
		return
	}
	w.work += (sample - w.work) / 4
}

// site returns pc's slot in the work table, claiming one (with no
// estimate) if pc has none. A collision or eviction can only cost
// speed: the site re-measures from an inline call.
func (s *Scheduler) site(pc uintptr) *siteWork {
	for i := range s.sites {
		if s.sites[i].pc == pc {
			return &s.sites[i]
		}
	}
	w := &s.sites[s.next]
	s.next = (s.next + 1) % siteSlots
	*w = siteWork{pc: pc}
	return w
}

func (s *Scheduler) inline(n int, fn func(ws *WorkerScratch, i int)) {
	ws := s.scratch[0]
	for i := 0; i < n; i++ {
		fn(ws, i)
	}
}

// fanOut runs ForEach's contiguous blocks at width w (2 ≤ w ≤ n) and
// returns the phase's total work as estimated from the caller's own
// block: its wall time scaled from its chunk of items to all n.
func (s *Scheduler) fanOut(n, w int, fn func(ws *WorkerScratch, i int)) time.Duration {
	chunk := (n + w - 1) / w
	var wg sync.WaitGroup
	for k := 1; k < w; k++ {
		lo := k * chunk
		if lo >= n {
			break
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(ws *WorkerScratch, lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				fn(ws, i)
			}
		}(s.scratch[k], lo, hi)
	}
	t0 := time.Now()
	ws := s.scratch[0]
	for i := 0; i < chunk; i++ {
		fn(ws, i)
	}
	work := time.Since(t0) * time.Duration(n) / time.Duration(chunk)
	wg.Wait()
	return work
}
