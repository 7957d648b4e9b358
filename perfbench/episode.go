package main

import (
	"encoding/binary"
	"hash/fnv"
	"time"
)

// holdBeats is the synchronized-and-incrementing streak that counts as
// converged (the hold of sim.MeasureConvergence and
// ssbyzclock.Cluster.RunUntilSynced as every workload runs them).
const holdBeats = 8

// closureBeats is how many further beats a hold must stay synchronized
// and incrementing before the episode counts as converged. A hold that
// breaks inside this window was premature: the clocks can agree and
// increment for holdBeats beats while the 4-clock underneath is still
// unconverged, and then move together to the value the converged
// 4-clock dictates. Such a hold is counted, and the episode waits for
// the next one within its budget.
const closureBeats = 8

// episode follows one cluster from a scramble through convergence and
// the closure check, one observed beat at a time.
type episode struct {
	k      uint64
	budget int // beats allowed to reach the hold

	beats    int
	streak   int
	prev     uint64
	havePrev bool
	// converge is the beats from the scramble to the first beat of the
	// hold streak, counting that beat (so at least 1); 0 until held.
	converge    int
	closureLeft int
	premature   int // holds that broke inside the closure window
	failed      bool
	done        bool
}

func newEpisode(k uint64, budget int) *episode { return &episode{k: k, budget: budget} }

// observe feeds the honest agreement after one beat: the common clock
// value and whether every honest clock agreed on it.
func (e *episode) observe(v uint64, synced bool) {
	e.beats++
	good := synced && (!e.havePrev || v == (e.prev+1)%e.k)
	e.prev, e.havePrev = v, synced
	if e.converge > 0 {
		if good {
			if e.closureLeft--; e.closureLeft == 0 {
				e.done = true
			}
			return
		}
		e.premature++
		e.converge = 0
	}
	if good {
		e.streak++
	} else {
		e.streak = 0
	}
	if e.streak >= holdBeats {
		e.converge = e.beats - holdBeats + 1
		e.closureLeft = closureBeats
		e.streak = 0
		return
	}
	if e.beats >= e.budget {
		e.failed, e.done = true, true
	}
}

// lockstepStack is one single-cluster stack the episode driver steps:
// the engine (plain or phased) or the public Cluster.
type lockstepStack interface {
	scramble()
	// step runs one beat and returns how long the program took for it.
	step() time.Duration
	// honest reports the honest clocks after the last beat; the driver
	// folds them into the trajectory hash and the agreement check.
	honest(dst []uint64) []uint64
}

// runLog is what the driver records while stepping a lockstep stack.
type runLog struct {
	stepNs   []int64 // per-beat program time
	converge []int   // per converged episode, in episode order
	episodes int
	// premature counts holds that broke inside their closure window.
	premature int
	failed    int
	trajHash  uint64 // FNV-64a over the completed episodes' honest clocks
}

// drive runs scramble-to-closure episodes on s: exactly minEpisodes
// when expired is nil, otherwise at least minEpisodes and then more
// until expired reports true, abandoning (and not counting) the episode
// in progress at that point.
func drive(s lockstepStack, k uint64, budget, minEpisodes int, expired func() bool) runLog {
	var log runLog
	h := fnv.New64a()
	var clocks []uint64
	var buf [8]byte
	for expired != nil || log.episodes < minEpisodes {
		s.scramble()
		ep := newEpisode(k, budget)
		for !ep.done {
			if expired != nil && log.episodes >= minEpisodes && expired() {
				return log
			}
			log.stepNs = append(log.stepNs, int64(s.step()))
			clocks = s.honest(clocks[:0])
			for _, c := range clocks {
				binary.LittleEndian.PutUint64(buf[:], c)
				h.Write(buf[:])
			}
			v, ok := agreement(clocks)
			ep.observe(v, ok)
		}
		log.episodes++
		log.premature += ep.premature
		log.trajHash = h.Sum64()
		if ep.failed {
			log.failed++
		} else {
			log.converge = append(log.converge, ep.converge)
		}
	}
	return log
}

// agreement reports whether every clock in cs is equal, and the value.
// Undefined clocks are passed as noClock.
func agreement(cs []uint64) (uint64, bool) {
	if len(cs) == 0 {
		return 0, false
	}
	for _, c := range cs {
		if c != cs[0] || c == noClock {
			return 0, false
		}
	}
	return cs[0], true
}

// noClock stands for an undefined clock reading.
const noClock = ^uint64(0)

func meanInt(xs []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0
	for _, x := range xs {
		s += x
	}
	return float64(s) / float64(len(xs))
}
