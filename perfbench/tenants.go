package main

import (
	"encoding/binary"
	"hash/fnv"
	"runtime"
	"time"

	"ssbyzclock/internal/multi"
	"ssbyzclock/internal/proto"
)

// tenantStack steps a multi.Engine and reads every tenant's honest
// clocks.
type tenantStack struct {
	m       *multi.Engine
	readers [][]proto.ClockReader
}

func newTenantStack(m *multi.Engine) *tenantStack {
	s := &tenantStack{m: m, readers: make([][]proto.ClockReader, m.Tenants())}
	for t := range s.readers {
		e := m.Tenant(t)
		for _, id := range e.HonestIDs() {
			cr, _ := e.Node(id).(proto.ClockReader)
			s.readers[t] = append(s.readers[t], cr)
		}
	}
	return s
}

// driveTenants runs all-tenant episodes: every tenant is scrambled, then
// the engine steps until each tenant has held and passed its closure
// check (or run out of budget). Tenants that finish early keep stepping
// with the rest. Episode counting follows drive, in units of whole
// all-tenant episodes; the log counts tenant-episodes.
func driveTenants(s *tenantStack, k uint64, budget, minEpisodes int, expired func() bool) runLog {
	var log runLog
	h := fnv.New64a()
	var clocks []uint64
	var buf [8]byte
	T := s.m.Tenants()
	eps := make([]*episode, T)
	for rounds := 0; expired != nil || rounds < minEpisodes; rounds++ {
		s.m.ScrambleHonest()
		for t := range eps {
			eps[t] = newEpisode(k, budget)
		}
		for left := T; left > 0; {
			if expired != nil && rounds >= minEpisodes && expired() {
				return log
			}
			t0 := time.Now()
			s.m.Step()
			log.stepNs = append(log.stepNs, int64(time.Since(t0)))
			for t, ep := range eps {
				clocks = readClocks(s.readers[t], clocks[:0])
				for _, c := range clocks {
					binary.LittleEndian.PutUint64(buf[:], c)
					h.Write(buf[:])
				}
				if ep.done {
					continue
				}
				v, ok := agreement(clocks)
				if ep.observe(v, ok); ep.done {
					left--
				}
			}
		}
		for _, ep := range eps {
			log.episodes++
			log.premature += ep.premature
			if ep.failed {
				log.failed++
			} else {
				log.converge = append(log.converge, ep.converge)
			}
		}
		log.trajHash = h.Sum64()
	}
	return log
}

// The multi layer is measured on the shape the multiplexer serves: T
// tenants of n=4, f=1 under the splitter, about 60 kB each, so that the
// resident state (about 60 MB) overruns the caches.
var tenantShape = shape{n: 4, f: 1, k: 64, splitter: true}

const tenantCount = 1000

// buildTenants builds, scrambles and warms a multi-tenant engine; tenant
// t runs with seed+t.
func buildTenants(seed int64, tr *tracer) *multi.Engine {
	sh := tenantShape
	m := multi.New(multi.Config{Tenants: tenantCount, Node: engineConfig(sh, seed)}, nodeFactory(sh, tr))
	m.ScrambleHonest()
	m.Run(warmBeats)
	return m
}

// multiLayers runs the multi-tenant engine untraced for about seconds
// (at least one all-tenant episode), then traced for the same episodes,
// checks that both replay one trajectory, and reports the multi layer
// per tenant-beat: protocol busy time (node spans), everything else
// (GOMAXPROCS × step wall − protocol busy: exchange, EvalBatch flush,
// recycle, barrier idle), allocations and the GC's CPU share.
func multiLayers(o options, seconds float64, rep *report) {
	sh, T := tenantShape, tenantCount
	plain := driveTenants(newTenantStack(buildTenants(o.seed, nil)), sh.k, o.budget, 1, deadline(seconds))
	tr := &tracer{}
	ts := newTenantStack(buildTenants(o.seed, tr))
	base := tr.spans()
	c0 := readCPU()
	traced := driveTenants(ts, sh.k, o.budget, plain.episodes/T, nil)
	c1 := readCPU()
	checkReplay(rep, "tenants", plain, traced)
	countEpisodes(rep, plain, traced)

	tb := float64(T * len(traced.stepNs))
	busy := float64(tr.spans().sub(base).busyNs())
	rep.set("multi.protocol_ns_per_tenant_beat", busy/tb, "ns", countNote(T, "tenants"))
	other := float64(runtime.GOMAXPROCS(0))*float64(sum(traced.stepNs)) - busy
	rep.set("multi.other_ns_per_tenant_beat", other/tb, "ns", countNote(len(traced.stepNs), "steps"))
	rep.set("multi.allocs_per_tenant_beat", float64(c1.mallocs-c0.mallocs)/tb, "count", "")
	gc := 0.0
	if d := c1.totalCPU - c0.totalCPU; d > 0 {
		gc = (c1.gcCPU - c0.gcCPU) / d
	}
	rep.set("multi.gc_cpu_share", gc, "share", "")
}
