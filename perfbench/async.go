package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/dist"
	"repro/internal/query"
	"repro/internal/rng"
	"repro/internal/stream"
	"repro/internal/track"
)

// async-chaos: dist.AsyncSim over a lossy, jittered network with failure
// detection, a light Q=3 engine over k=4 sites, and a stationary
// mean-reverting input. Each episode fires a seeded schedule over the first
// half of its timed phase: one site crash healed by a warm takeover, one
// coordinator crash healed by a warm standby, and two partition windows.
// Snapshots run only at fault time and at the end, outside the timers.
// The event heap, retransmissions, heartbeats and takeover paths dominate.

const (
	asyncK        = 4
	asyncChunk    = 256
	asyncWarm     = 2048
	asyncTimed    = 8192
	asyncLevel    = 1000
	asyncTheta    = 0.5
	asyncSegments = 4
)

// asyncModel is the fault model: latency 2 ± jitter 3 ticks, 3% loss with
// up to 6 retransmissions, heartbeats every 32 ticks, dead after 3 misses.
var asyncModel = dist.NetModel{
	Latency: 2, Jitter: 3, Drop: 0.03, Retrans: 6,
	HeartbeatEvery: 32, HeartbeatMiss: 3,
}

func asyncSpecs(seed uint64) []query.Spec {
	return []query.Spec{
		{Algo: "det", Eps: 0.1},
		{Algo: "rand", Eps: 0.1, Seed: seed + 41},
		{Algo: "det", Eps: 0.05},
	}
}

// Fault kinds of the async-chaos schedule.
const (
	faultSite = iota
	faultCoord
	faultPartition
)

type fault struct {
	kind   int
	site   int
	at     int   // timed-phase update index after which the fault fires
	window int64 // partition width in ticks
}

// asyncSchedule places one fault per segment of the first half of the
// timed phase, each early in its segment so its heal (at most 16
// heartbeat periods) completes before the next fault: a site crash, a
// coordinator crash and two partitions, in seeded order.
func asyncSchedule(seed uint64, timed int) []fault {
	r := rng.New(seed)
	kinds := []int{faultSite, faultCoord, faultPartition, faultPartition}
	for i := len(kinds) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		kinds[i], kinds[j] = kinds[j], kinds[i]
	}
	seg := timed / 2 / asyncSegments
	hb := asyncModel.HeartbeatEvery
	out := make([]fault, asyncSegments)
	for s := range out {
		out[s] = fault{
			kind:   kinds[s],
			site:   r.Intn(asyncK),
			at:     s*seg + seg/8 + r.Intn(seg/4),
			window: (4 + r.Int63n(9)) * hb,
		}
	}
	return out
}

func asyncEpisode(c *config, seed uint64, traced bool, chk *checker) episodeOut {
	warm, timed := c.sized(asyncWarm, asyncChunk), c.sized(asyncTimed, asyncChunk)
	specs := asyncSpecs(seed)
	faults := asyncSchedule(seed+3, timed)
	gen := stream.NewAssign(
		stream.MeanReverting(int64(warm+timed), asyncLevel, asyncTheta, seed+7),
		stream.NewSkewed(asyncK, 1.3, seed+11))
	buf := make([]stream.Update, asyncChunk)
	var f truth
	var out episodeOut
	var lay layerOut
	hb := asyncModel.HeartbeatEvery

	t0 := time.Now()
	eng, esites, err := query.New(asyncK, specs)
	if err != nil {
		panic(err)
	}
	d := deploy(eng, esites, traced, true)
	sim := dist.NewAsyncSim(d.coord, d.sites, asyncModel, seed+13)
	sim.SetClassifier(eng)
	// step feeds us through StepBatch; traced, it also accounts the
	// runtime's self time and pending-event high-water mark.
	step := func(us []stream.Update) {
		for i := 0; i < len(us); {
			if !traced {
				k, _ := sim.StepBatch(us[i:])
				i += k
				continue
			}
			a0 := d.algoTotal
			s := nowNs()
			k, _ := sim.StepBatch(us[i:])
			lay.asyncNs += nowNs() - s - (d.algoTotal - a0)
			lay.pendingMax = max(lay.pendingMax, sim.Pending())
			i += k
		}
	}
	for fed := 0; fed < warm; {
		n := stream.NextBatch(gen, buf)
		if n == 0 {
			panic("perfbench: stream ended early")
		}
		f.add(buf[:n])
		step(buf[:n])
		fed += n
	}
	out.setup = time.Since(t0)

	d.resetLedgers()
	lay = layerOut{}
	coord := eng
	st0, class0 := sim.Stats(), sim.ClassStats()
	gc0 := gcCounter.read()
	next := 0
	var last int64
	for fed := 0; fed < timed; {
		g := nowNs()
		n := stream.NextBatch(gen, buf)
		lay.genNs += nowNs() - g
		if n == 0 {
			panic("perfbench: stream ended early")
		}
		f.add(buf[:n])
		for i := 0; i < n; {
			// Stop the burst at the next fault, which fires between calls.
			lim := n
			if next < len(faults) && faults[next].at-fed < lim {
				lim = faults[next].at - fed + 1
			}
			if fed+lim == timed {
				lim-- // the episode's last update goes in its own call
			}
			a0 := allocCounter.read()
			s := nowNs()
			step(buf[i:lim])
			if fed+lim == timed-1 {
				last = nowNs()
				step(buf[lim : lim+1])
				lim++
			}
			out.ingest += time.Duration(nowNs() - s)
			out.alloc += allocCounter.read() - a0
			out.updates += int64(lim - i)
			i = lim
			if next < len(faults) && fed+i-1 == faults[next].at {
				coord = fireFault(chk, sim, d, faults[next], specs, coord, esites, hb)
				next++
			}
		}
		fed += n
	}
	// Drain to quiescence: the final retransmissions and deliveries are
	// work the updates caused, so Flush is timed with them.
	a0 := allocCounter.read()
	s := nowNs()
	if traced {
		a := d.algoTotal
		sim.Flush()
		lay.asyncNs += nowNs() - s - (d.algoTotal - a)
	} else {
		sim.Flush()
	}
	ests := make([]int64, len(specs))
	for q := range ests {
		ests[q], _ = coord.EstimateQuery(q)
	}
	e := nowNs()
	out.ingest += time.Duration(e - s)
	out.alloc += allocCounter.read() - a0
	out.fresh = append(out.fresh, time.Duration(e-last))
	out.rates = []float64{float64(out.updates) / out.ingest.Seconds()}
	out.gc = gcCounter.read() - gc0

	where := fmt.Sprintf("async-chaos seed %d", seed)
	st := sim.Stats()
	class := sim.ClassStats()
	ests = checkQueries(chk, where, coord, specs, &f)
	checkStats(chk, where, st, class)
	chk.check(st.EpochDrops <= st.Dropped, "%s: EpochDrops %d > Dropped %d", where, st.EpochDrops, st.Dropped)
	chk.check(st.Takeovers == 1, "%s: takeovers %d ≠ 1 site crash", where, st.Takeovers)
	chk.check(st.CoordTakeovers == 1, "%s: coordinator takeovers %d ≠ 1 coordinator crash", where, st.CoordTakeovers)
	chk.check(!sim.CoordCrashed(), "%s: coordinator still crashed after quiescence", where)
	out.ckpts = append(out.ckpts, fullCheckpoint(chk, where, engineCkpt(asyncK, specs, coord, esites, ests), traced))

	out.msgs = st.Total() - st0.Total()
	out.fp = fingerprint{stats: st, class: class, ests: ests, stateBytes: out.ckpts[0].bytes}
	if traced {
		lay.algo = d.ledger()
		lay.stats = st
		lay.stats.Merge(negate(st0))
		lay.asyncEvents = lay.stats.Total() + lay.stats.Dropped + lay.stats.Retransmitted + lay.stats.HeartbeatsSent
		lay.classMsgs = classDelta(class, class0)
		out.layer = lay
	}
	// See simEpisode: the deployment's live heap is the difference across
	// its release.
	live := heapAfterGC()
	runtime.KeepAlive(sim) // reaches every node of the deployment
	out.heap = live - heapAfterGC()
	runtime.KeepAlive(gen)
	runtime.KeepAlive(buf)
	return out
}

// fireFault schedules one fault one tick ahead. A site crash restores the
// victim's snapshot into a rebuilt site spliced in 8 heartbeat periods
// later; a coordinator crash restores a coordinator snapshot into a
// standby. It returns the coordinator that will serve after the fault, and
// replaces the victim in esites.
func fireFault(chk *checker, sim *dist.AsyncSim, d *deployment, fl fault, specs []query.Spec,
	coord *query.Coord, esites []dist.SiteAlgo, hb int64) *query.Coord {
	fire := sim.Now() + 1
	switch fl.kind {
	case faultSite:
		fresh := coord.RebuildSite(fl.site)
		snap, err := track.SnapshotSite(esites[fl.site])
		chk.check(err == nil, "snapshot crashed site %d: %v", fl.site, err)
		err = track.RestoreSite(fresh, snap)
		chk.check(err == nil, "restore crashed site %d: %v", fl.site, err)
		sim.ScheduleCrash(fl.site, fire)
		sim.ScheduleTakeover(fl.site, fire+8*hb, d.replaceSite(fl.site, fresh))
		esites[fl.site] = fresh
	case faultCoord:
		snap, err := track.SnapshotCoord(coord)
		chk.check(err == nil, "snapshot coordinator: %v", err)
		fresh, _, err := query.New(len(esites), specs)
		if err != nil {
			panic(err)
		}
		err = track.RestoreCoord(fresh, snap)
		chk.check(err == nil, "restore coordinator: %v", err)
		sim.ScheduleCoordCrash(fire)
		sim.ScheduleCoordTakeover(fire+8*hb, d.replaceCoord(fresh))
		// The standby attributes per query exactly as the engine it
		// replaces (Class is a pure function of the message).
		return fresh
	case faultPartition:
		sim.ScheduleDown(fl.site, fire)
		sim.ScheduleUp(fl.site, fire+fl.window)
	}
	return coord
}
