package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"

	"repro/internal/dist"
	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/track"
)

// tcp-loopback: the real TCP transport on 127.0.0.1 — one Coordinator and
// k=2 NetSites, one connection per CPU of the reference box — running a
// standalone deterministic tracker (ε=0.02) over a mean-reverting input at
// level 100, about 1.3 messages per update. Updates arrive in bursts;
// after each burst the benchmark quiesces the network with barrier rounds
// and reads the estimate, so ingest (frame writes) and reads (barrier
// round trips) share one closed loop. The process runs with GOMAXPROCS=1: with
// two Ps the freshness tail depends on how the scheduler splits the
// coordinator and site goroutines, not on the code.

const (
	tcpK          = 2
	tcpProcs      = 1
	tcpEps        = 0.02
	tcpLevel      = 100
	tcpTheta      = 0.5
	tcpBurst      = 32
	tcpWarmBursts = 64
	tcpBursts     = 1024
	tcpCkptEvery  = 8 // bursts
	// tcpQuiesceCap bounds the barrier rounds of one quiesce; hitting it
	// is a failed check.
	tcpQuiesceCap = 16
)

// detSpec describes the standalone tracker for the estimate check.
var detSpec = query.Spec{Algo: "det", Eps: tcpEps}

var errNotQuiescent = errors.New("network still active after the barrier-round cap")

// quiesce repeats barrier rounds over every site until one full round
// leaves the coordinator's protocol counters unchanged (heartbeats aside).
// A fixed two rounds is not enough: a reply can trigger a report that
// triggers another reply. It returns the rounds used.
func quiesce(coord *dist.Coordinator, sites []*dist.NetSite, barrierNs *[]int64) (int, error) {
	var prev dist.Stats
	for round := 1; round <= tcpQuiesceCap; round++ {
		for _, s := range sites {
			b := nowNs()
			if err := s.Barrier(); err != nil {
				return round, err
			}
			if barrierNs != nil {
				*barrierNs = append(*barrierNs, nowNs()-b)
			}
		}
		st := coord.Stats().WithoutLiveness()
		if round > 1 && st == prev {
			return round, nil
		}
		prev = st
	}
	return tcpQuiesceCap, errNotQuiescent
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

func rusage() (cpuNs, ctxsw int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fatalf("getrusage: %v", err)
	}
	return ru.Utime.Nano() + ru.Stime.Nano(), ru.Nvcsw + ru.Nivcsw
}

func tcpEpisode(c *config, seed uint64, traced bool, chk *checker) episodeOut {
	warm := c.sized(tcpWarmBursts, 1)
	bursts := c.sized(tcpBursts, tcpCkptEvery)
	gen := stream.NewAssign(
		stream.MeanReverting(int64((warm+bursts)*tcpBurst), tcpLevel, tcpTheta, seed+5),
		stream.NewUniformRandom(tcpK, seed+6))
	buf := make([]stream.Update, tcpBurst)
	var f truth
	var out episodeOut
	var lay layerOut

	t0 := time.Now()
	coordAlgo, siteAlgos := track.NewDeterministic(tcpK, tcpEps)
	d := deploy(coordAlgo, siteAlgos, traced, false)
	coord, err := dist.ListenCoordinator("127.0.0.1:0", tcpK, d.coord)
	if err != nil {
		fatalf("listen: %v", err)
	}
	sites := make([]*dist.NetSite, tcpK)
	for i := range sites {
		if sites[i], err = dist.DialNetSite(coord.Addr(), i, d.sites[i]); err != nil {
			fatalf("dial site %d: %v", i, err)
		}
	}
	burst := func() int {
		n := stream.NextBatch(gen, buf)
		if n == 0 {
			panic("perfbench: stream ended early")
		}
		f.add(buf[:n])
		return n
	}
	for b := 0; b < warm; b++ {
		n := burst()
		for _, u := range buf[:n] {
			sites[u.Site].Update(u)
		}
		if _, err := quiesce(coord, sites, nil); err != nil {
			fatalf("warm-up quiesce: %v", err)
		}
	}
	out.setup = time.Since(t0)

	lay = layerOut{}
	var barrierNs *[]int64
	if traced {
		// Zero each shim's account under its node's lock, so the ledger
		// covers only the timed phase.
		coord.Inject(func(dist.Outbox) { d.coordShim.l = algoLedger{} })
		for i, s := range sites {
			s.Inject(func(dist.Outbox) { d.siteShims[i].l = algoLedger{} })
		}
		barrierNs = &lay.barrierNs
	}
	st0 := coord.Stats()
	gc0 := gcCounter.read()
	cpu0, sw0 := rusage()
	seg := segmentClock{every: tcpCkptEvery * tcpBurst}
	for b := 0; b < bursts; b++ {
		g := nowNs()
		n := burst()
		lay.genNs += nowNs() - g

		a0 := allocCounter.read()
		s := nowNs()
		var last int64
		for j, u := range buf[:n] {
			if j == n-1 {
				last = nowNs()
			}
			if traced {
				t := nowNs()
				sites[u.Site].Update(u)
				lay.updateNs = append(lay.updateNs, nowNs()-t)
			} else {
				sites[u.Site].Update(u)
			}
		}
		rounds, err := quiesce(coord, sites, barrierNs)
		est := coord.Estimate()
		e := nowNs()
		out.alloc += allocCounter.read() - a0
		seg.add(&out, n, e-s)
		out.fresh = append(out.fresh, time.Duration(e-last))
		lay.quiesceRounds += int64(rounds)
		lay.quiesces++

		where := fmt.Sprintf("tcp-loopback burst %d", b)
		if err != nil && !errors.Is(err, errNotQuiescent) {
			fatalf("%s: %v", where, err)
		}
		chk.check(err == nil, "%s: %v", where, err)
		checkEstimate(chk, where, 0, detSpec, f.all, est)
		if (b+1)%tcpCkptEvery == 0 {
			checkStats(chk, where, coord.Stats(), nil)
			out.ckpts = append(out.ckpts, fullCheckpoint(chk, where, tcpCkpt(coord, sites, coordAlgo, siteAlgos, est), traced))
		}
	}
	cpu1, sw1 := rusage()
	out.gc = gcCounter.read() - gc0
	st := coord.Stats()
	out.msgs = st.Total() - st0.Total()
	live := heapAfterGC()

	for i, s := range sites {
		chk.check(s.Close() == nil, "close site %d", i)
	}
	chk.check(coord.Close() == nil, "close coordinator: %v", coord.Err())
	out.fp = fingerprint{stats: st, ests: []int64{coordAlgo.Estimate()}, stateBytes: out.ckpts[len(out.ckpts)-1].bytes}
	if traced {
		// Every node has stopped, so the shims' ledgers are read after
		// their last write.
		lay.algo = d.ledger()
		lay.stats = st
		lay.stats.Merge(negate(st0))
		lay.classMsgs = []int64{lay.stats.Total()}
		lay.cpuNs = cpu1 - cpu0
		lay.ctxsw = sw1 - sw0
		out.layer = lay
	}
	// See simEpisode: the deployment's live heap — connections included —
	// is the difference across its release.
	out.heap = live - heapAfterGC()
	runtime.KeepAlive(gen)
	runtime.KeepAlive(buf)
	return out
}

// tcpCkpt is the checkpoint target of the TCP deployment: each node is
// snapshotted under its runtime lock, at a quiesced point.
func tcpCkpt(coord *dist.Coordinator, sites []*dist.NetSite, coordAlgo dist.CoordAlgo,
	siteAlgos []dist.SiteAlgo, est int64) ckptTarget {
	return ckptTarget{
		k: tcpK,
		snapCoord: func() (b []byte, err error) {
			coord.Inject(func(dist.Outbox) { b, err = track.SnapshotCoord(coordAlgo) })
			return b, err
		},
		snapSite: func(i int) (b []byte, err error) {
			sites[i].Inject(func(dist.Outbox) { b, err = track.SnapshotSite(siteAlgos[i]) })
			return b, err
		},
		fresh:     func() (dist.CoordAlgo, []dist.SiteAlgo) { return track.NewDeterministic(tcpK, tcpEps) },
		estimates: func(c dist.CoordAlgo) []int64 { return []int64{c.Estimate()} },
		live:      []int64{est},
	}
}
