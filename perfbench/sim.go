package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/dist"
	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/track"
)

// sim-engine: dist.Sim driving the multi-query engine. Q=8 queries mix
// every tracker family (det, rand, freq, threshold), three of them behind
// an item filter, over k=8 sites. The input is an insert/delete item
// stream (Zipf items, 45% deletes) assigned to sites by a Zipf law, so
// same-site runs engage the batch path. A full checkpoint round trip runs
// every simCkptEvery updates. The transport does no work here: the algo
// and snapshot layers dominate. The item universe is small enough for the
// per-item state to stay in cache: with 4096 items the run-to-run spread
// of every timing roughly doubled on a shared 2-vCPU box.

const (
	simK         = 8
	simChunk     = 256 // updates generated per burst, outside the timers
	simWarm      = 65_536
	simTimed     = 524_288
	simCkptEvery = 65_536
	simSegment   = 16_384 // updates per ingest-rate sample
	simUniverse  = 512
	simDelProb   = 0.45
	simTau       = 20_000
)

func simSpecs(seed uint64) []query.Spec {
	even, err := query.ParseFilter("even")
	if err != nil {
		panic(err)
	}
	odd, err := query.ParseFilter("odd")
	if err != nil {
		panic(err)
	}
	return []query.Spec{
		{Algo: "det", Eps: 0.05},
		{Algo: "rand", Eps: 0.1, Seed: seed + 101},
		{Algo: "freq", Eps: 0.1},
		{Algo: "threshold", Eps: 0.2, Tau: simTau},
		{Algo: "det", Eps: 0.1, Filter: even},
		{Algo: "rand", Eps: 0.05, Seed: seed + 102, Filter: even},
		{Algo: "freq", Eps: 0.2, Filter: even},
		{Algo: "det", Eps: 0.02, Filter: odd},
	}
}

// engineEstimates reads every query estimate of an engine coordinator.
func engineEstimates(q int) func(dist.CoordAlgo) []int64 {
	return func(c dist.CoordAlgo) []int64 {
		eng := c.(*query.Coord)
		out := make([]int64, q)
		for i := range out {
			out[i], _ = eng.EstimateQuery(i)
		}
		return out
	}
}

// engineCkpt is the checkpoint target of an engine deployment running in
// one of the simulators.
func engineCkpt(k int, specs []query.Spec, eng *query.Coord, sites []dist.SiteAlgo, live []int64) ckptTarget {
	return ckptTarget{
		k:         k,
		snapCoord: func() ([]byte, error) { return track.SnapshotCoord(eng) },
		snapSite:  func(i int) ([]byte, error) { return track.SnapshotSite(sites[i]) },
		fresh: func() (dist.CoordAlgo, []dist.SiteAlgo) {
			c, s, err := query.New(k, specs)
			if err != nil {
				panic(err)
			}
			return c, s
		},
		estimates: engineEstimates(len(specs)),
		live:      live,
	}
}

func simEpisode(c *config, seed uint64, traced bool, chk *checker) episodeOut {
	warm, timed := c.sized(simWarm, simChunk), c.sized(simTimed, simChunk)
	every := c.sized(simCkptEvery, simChunk)
	specs := simSpecs(seed)
	gen := stream.NewAssign(
		stream.NewItemGen(int64(warm+timed), simUniverse, 1.2, simDelProb, seed),
		stream.NewSkewed(simK, 1.5, seed+1))
	buf := make([]stream.Update, simChunk)
	var f truth
	var out episodeOut
	var lay layerOut

	t0 := time.Now()
	eng, esites, err := query.New(simK, specs)
	if err != nil {
		panic(err)
	}
	d := deploy(eng, esites, traced, true)
	sim := dist.NewSim(d.coord, d.sites)
	sim.SetClassifier(eng)
	d.setQueueProbe(sim.QueueLen)
	// feed drives us through StepBatch; traced, it also splits the Sim's
	// self time.
	feed := func(us []stream.Update) {
		if traced {
			simStepTraced(sim, d, us, &lay)
			return
		}
		for i := 0; i < len(us); {
			k, _ := sim.StepBatch(us[i:])
			i += k
		}
	}
	for fed := 0; fed < warm; {
		n := stream.NextBatch(gen, buf)
		if n == 0 {
			panic("perfbench: item stream ended early")
		}
		f.add(buf[:n])
		feed(buf[:n])
		fed += n
	}
	out.setup = time.Since(t0)

	d.resetLedgers()
	lay = layerOut{}
	st0, class0 := sim.Stats(), sim.ClassStats()
	gc0 := gcCounter.read()
	ests := make([]int64, len(specs))
	seg := segmentClock{every: c.sized(simSegment, simChunk)}
	for fed := 0; fed < timed; {
		g := nowNs()
		n := stream.NextBatch(gen, buf)
		lay.genNs += nowNs() - g
		if n == 0 {
			panic("perfbench: item stream ended early")
		}
		f.add(buf[:n])

		a0 := allocCounter.read()
		s := nowNs()
		feed(buf[:n-1])
		// The burst's last update goes in its own call: freshness runs
		// from handing it over to every estimate read at quiescence.
		last := nowNs()
		feed(buf[n-1 : n])
		for q := range ests {
			ests[q], _ = eng.EstimateQuery(q)
		}
		e := nowNs()
		out.alloc += allocCounter.read() - a0
		seg.add(&out, n, e-s)
		out.fresh = append(out.fresh, time.Duration(e-last))
		fed += n

		if fed%every == 0 || fed >= timed {
			where := fmt.Sprintf("sim-engine update %d", warm+fed)
			ests = checkQueries(chk, where, eng, specs, &f)
			checkStats(chk, where, sim.Stats(), sim.ClassStats())
			out.ckpts = append(out.ckpts, fullCheckpoint(chk, where,
				engineCkpt(simK, specs, eng, esites, ests), traced))
		}
	}
	out.gc = gcCounter.read() - gc0
	st := sim.Stats()
	out.msgs = st.Total() - st0.Total()
	out.fp = fingerprint{stats: st, class: sim.ClassStats(), ests: ests, stateBytes: out.ckpts[len(out.ckpts)-1].bytes}
	if traced {
		lay.algo = d.ledger()
		lay.stats = st
		lay.stats.Merge(negate(st0))
		lay.simMsgs = lay.stats.Total()
		lay.classMsgs = classDelta(out.fp.class, class0)
		out.layer = lay
	}
	// The deployment is not used past this point: the live heap it held
	// is the difference across its release. The generator and buffers
	// stay reachable so they count on neither side.
	live := heapAfterGC()
	runtime.KeepAlive(sim) // reaches every node of the deployment
	out.heap = live - heapAfterGC()
	runtime.KeepAlive(gen)
	runtime.KeepAlive(buf)
	return out
}

// simStepTraced feeds us through Sim.StepBatch one call at a time and
// splits the Sim's self time (call span minus the algo spans inside it)
// by whether the call delivered messages.
func simStepTraced(sim *dist.Sim, d *deployment, us []stream.Update, lay *layerOut) {
	for i := 0; i < len(us); {
		a0 := d.algoTotal
		s := nowNs()
		k, delivered := sim.StepBatch(us[i:])
		self := nowNs() - s - (d.algoTotal - a0)
		if delivered {
			lay.simBusyNs += self
			lay.simBusyUpdates += int64(k)
		} else {
			lay.simIdleNs += self
			lay.simIdleUpdates += int64(k)
		}
		i += k
	}
}

// negate returns -s on every summed counter, so Merge subtracts.
func negate(s dist.Stats) dist.Stats {
	return dist.Stats{
		SiteToCoord: -s.SiteToCoord, CoordToSite: -s.CoordToSite,
		Bytes: -s.Bytes, CompactBits: -s.CompactBits,
		Dropped: -s.Dropped, Retransmitted: -s.Retransmitted,
		StalenessSum:   -s.StalenessSum,
		HeartbeatsSent: -s.HeartbeatsSent, HeartbeatsRecv: -s.HeartbeatsRecv,
		HeartbeatMisses: -s.HeartbeatMisses, Takeovers: -s.Takeovers,
		CoordTakeovers: -s.CoordTakeovers, EpochDrops: -s.EpochDrops,
	}
}

// classDelta returns each query's messages between two ClassStats reads.
func classDelta(end, start []dist.Stats) []int64 {
	out := make([]int64, len(end))
	for q := range end {
		out[q] = end[q].Total()
		if q < len(start) {
			out[q] -= start[q].Total()
		}
	}
	return out
}
