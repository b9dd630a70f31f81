package main

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/dist"
	"repro/internal/stream"
	"repro/internal/track"
)

// The traced run measures the algo layer from outside: every SiteAlgo and
// CoordAlgo is wrapped in a shim that times its calls, and every Outbox
// handed to the algorithm is wrapped so the time spent inside the
// runtime's send path is subtracted from the algorithm's span and left to
// the runtime. Fault hooks (rejoin, takeover, failure detection) are
// forwarded untimed, so their time counts as the runtime's own. Shims forward every optional interface the runtimes
// type-assert, so a traced deployment behaves exactly like an untraced one.

var origin = time.Now()

// nowNs is a monotonic nanosecond clock.
func nowNs() int64 { return int64(time.Since(origin)) }

// span accumulates one boundary's self time and call count.
type span struct{ ns, calls int64 }

// algoLedger is one shim's (or, summed, one deployment's) algo-layer
// account. Each shim owns its ledger, so on the TCP transport every ledger
// is only touched under the lock the runtime holds around that node.
type algoLedger struct {
	siteUpdate span // OnUpdate + OnUpdateBatch entries
	siteMsg    span // site OnMessage
	coordMsg   span // coordinator OnMessage
	queueMax   int  // Sim.QueueLen high-water mark seen at deliveries
}

func (a *algoLedger) add(o *algoLedger) {
	a.siteUpdate.ns += o.siteUpdate.ns
	a.siteUpdate.calls += o.siteUpdate.calls
	a.siteMsg.ns += o.siteMsg.ns
	a.siteMsg.calls += o.siteMsg.calls
	a.coordMsg.ns += o.coordMsg.ns
	a.coordMsg.calls += o.coordMsg.calls
	a.queueMax = max(a.queueMax, o.queueMax)
}

// timedOutbox forwards to the runtime's outbox and times the forwarding.
type timedOutbox struct {
	inner dist.Outbox
	ns    int64
}

func (o *timedOutbox) Send(m dist.Msg) {
	t := nowNs()
	o.inner.Send(m)
	o.ns += nowNs() - t
}

func (o *timedOutbox) SendTo(site int, m dist.Msg) {
	t := nowNs()
	o.inner.SendTo(site, m)
	o.ns += nowNs() - t
}

func (o *timedOutbox) Broadcast(m dist.Msg) {
	t := nowNs()
	o.inner.Broadcast(m)
	o.ns += nowNs() - t
}

// shimBase is the span bookkeeping both shims share.
type shimBase struct {
	l   algoLedger
	out timedOutbox
	// queueLen, when set, samples the runtime's queue at every delivery.
	queueLen func() int
	// total, when set, accumulates the algo self time of every shim of a
	// single-goroutine deployment, so the runtime's self time per call is
	// one subtraction.
	total *int64
}

func (b *shimBase) enter(out dist.Outbox) int64 {
	b.out.inner = out
	b.out.ns = 0
	return nowNs()
}

func (b *shimBase) exit(t0 int64, sp *span) {
	self := nowNs() - t0 - b.out.ns
	sp.ns += self
	sp.calls++
	if b.total != nil {
		*b.total += self
	}
}

func (b *shimBase) sampleQueue() {
	if b.queueLen != nil {
		b.l.queueMax = max(b.l.queueMax, b.queueLen())
	}
}

// siteShim times a SiteAlgo.
type siteShim struct {
	shimBase
	inner dist.SiteAlgo
	batch dist.BatchSiteAlgo
}

// Compile-time proof that the shim forwards every optional site interface
// the runtimes and the snapshot layer type-assert.
var (
	_ dist.BatchSiteAlgo        = (*siteShim)(nil)
	_ dist.SiteRejoiner         = (*siteShim)(nil)
	_ dist.SiteTakeover         = (*siteShim)(nil)
	_ track.SiteSnapshotter     = (*siteShim)(nil)
	_ track.SnapshotHashSetter  = (*siteShim)(nil)
	_ dist.CoordAlgo            = (*coordShim)(nil)
	_ dist.CoordRejoiner        = (*coordShim)(nil)
	_ dist.CoordFailureHandler  = (*coordShim)(nil)
	_ dist.CoordRecoverHandler  = (*coordShim)(nil)
	_ dist.CoordTakeoverHandler = (*coordShim)(nil)
	_ dist.CoordTakeover        = (*coordShim)(nil)
	_ dist.Classifier           = (*coordShim)(nil)
	_ track.CoordSnapshotter    = (*coordShim)(nil)
	_ track.SnapshotHashSetter  = (*coordShim)(nil)
)

func (s *siteShim) OnUpdate(u stream.Update, out dist.Outbox) {
	t0 := s.enter(out)
	s.inner.OnUpdate(u, &s.out)
	s.exit(t0, &s.l.siteUpdate)
}

// OnUpdateBatch forwards to the inner batch path; an inner site without
// one consumes a single update, which the BatchSiteAlgo contract allows.
func (s *siteShim) OnUpdateBatch(us []stream.Update, out dist.Outbox) int {
	t0 := s.enter(out)
	n := 1
	if s.batch != nil {
		n = s.batch.OnUpdateBatch(us, &s.out)
	} else {
		s.inner.OnUpdate(us[0], &s.out)
	}
	s.exit(t0, &s.l.siteUpdate)
	return n
}

func (s *siteShim) OnMessage(m dist.Msg, out dist.Outbox) {
	s.sampleQueue()
	t0 := s.enter(out)
	s.inner.OnMessage(m, &s.out)
	s.exit(t0, &s.l.siteMsg)
}

func (s *siteShim) OnRejoin(out dist.Outbox) {
	if r, ok := s.inner.(dist.SiteRejoiner); ok {
		r.OnRejoin(out)
	}
}

func (s *siteShim) OnTakeover(out dist.Outbox) {
	if r, ok := s.inner.(dist.SiteTakeover); ok {
		r.OnTakeover(out)
	}
}

func (s *siteShim) AppendSnapshot(b []byte) ([]byte, error) {
	if r, ok := s.inner.(track.SiteSnapshotter); ok {
		return r.AppendSnapshot(b)
	}
	return nil, fmt.Errorf("perfbench: %T does not support snapshots", s.inner)
}

func (s *siteShim) RestoreSnapshot(r *track.SnapReader) error {
	if x, ok := s.inner.(track.SiteSnapshotter); ok {
		return x.RestoreSnapshot(r)
	}
	return fmt.Errorf("perfbench: %T does not support snapshots", s.inner)
}

func (s *siteShim) SetSnapshotHash(h uint64) {
	if x, ok := s.inner.(track.SnapshotHashSetter); ok {
		x.SetSnapshotHash(h)
	}
}

// coordShim times a CoordAlgo.
type coordShim struct {
	shimBase
	inner dist.CoordAlgo
}

func (c *coordShim) OnMessage(m dist.Msg, out dist.Outbox) {
	c.sampleQueue()
	t0 := c.enter(out)
	c.inner.OnMessage(m, &c.out)
	c.exit(t0, &c.l.coordMsg)
}

func (c *coordShim) Estimate() int64 { return c.inner.Estimate() }

func (c *coordShim) OnSiteRejoin(site int, out dist.Outbox) {
	if h, ok := c.inner.(dist.CoordRejoiner); ok {
		h.OnSiteRejoin(site, out)
	}
}

func (c *coordShim) OnSiteDead(site int, out dist.Outbox) {
	if h, ok := c.inner.(dist.CoordFailureHandler); ok {
		h.OnSiteDead(site, out)
	}
}

func (c *coordShim) OnSiteAlive(site int, out dist.Outbox) {
	if h, ok := c.inner.(dist.CoordRecoverHandler); ok {
		h.OnSiteAlive(site, out)
	}
}

func (c *coordShim) OnSiteTakeover(site int, out dist.Outbox) {
	if h, ok := c.inner.(dist.CoordTakeoverHandler); ok {
		h.OnSiteTakeover(site, out)
	}
}

func (c *coordShim) OnCoordTakeover(site int, epoch int64, out dist.Outbox) {
	if h, ok := c.inner.(dist.CoordTakeover); ok {
		h.OnCoordTakeover(site, epoch, out)
	}
}

// Class forwards per-query attribution, so a runtime handed the shim as
// its classifier attributes exactly as with the engine itself.
func (c *coordShim) Class(m *dist.Msg) int {
	if cl, ok := c.inner.(dist.Classifier); ok {
		return cl.Class(m)
	}
	return 0
}

func (c *coordShim) AppendSnapshot(b []byte) ([]byte, error) {
	if x, ok := c.inner.(track.CoordSnapshotter); ok {
		return x.AppendSnapshot(b)
	}
	return nil, fmt.Errorf("perfbench: coordinator %T does not support snapshots", c.inner)
}

func (c *coordShim) RestoreSnapshot(r *track.SnapReader) error {
	if x, ok := c.inner.(track.CoordSnapshotter); ok {
		return x.RestoreSnapshot(r)
	}
	return fmt.Errorf("perfbench: coordinator %T does not support snapshots", c.inner)
}

func (c *coordShim) SetSnapshotHash(h uint64) {
	if x, ok := c.inner.(track.SnapshotHashSetter); ok {
		x.SetSnapshotHash(h)
	}
}

// deployment is one coordinator and its sites as handed to a runtime:
// the algorithms themselves, or their shims on a traced episode.
type deployment struct {
	coord     dist.CoordAlgo
	sites     []dist.SiteAlgo
	coordShim *coordShim
	siteShims []*siteShim
	// shims is every shim ever made, replaced ones included: a takeover
	// scheduled ahead keeps the old shim in its slot until it fires.
	shims []*shimBase
	// algoTotal is every shim's algo self time so far; kept only for
	// single-goroutine runtimes (the simulators).
	algoTotal int64
	shared    bool
}

// deploy wraps coord and sites in timing shims when traced. shared makes
// the shims keep a running algoTotal, which only a runtime that calls
// every node from one goroutine may use.
//
// The runtime gets its own copy of the site list either way: a runtime
// keeps the slice it is handed, and the benchmark overwrites its own list
// when it prepares a takeover that must not reach the runtime before it
// fires.
func deploy(coord dist.CoordAlgo, sites []dist.SiteAlgo, traced, shared bool) *deployment {
	d := &deployment{coord: coord, sites: slices.Clone(sites), shared: shared}
	if !traced {
		return d
	}
	d.coordShim = d.newCoordShim(coord)
	d.coord = d.coordShim
	d.sites = make([]dist.SiteAlgo, len(sites))
	d.siteShims = make([]*siteShim, len(sites))
	for i, s := range sites {
		d.siteShims[i] = d.newSiteShim(s)
		d.sites[i] = d.siteShims[i]
	}
	return d
}

func (d *deployment) newSiteShim(inner dist.SiteAlgo) *siteShim {
	s := &siteShim{inner: inner}
	s.batch, _ = inner.(dist.BatchSiteAlgo)
	d.track(&s.shimBase)
	return s
}

func (d *deployment) newCoordShim(inner dist.CoordAlgo) *coordShim {
	c := &coordShim{inner: inner}
	d.track(&c.shimBase)
	return c
}

func (d *deployment) track(b *shimBase) {
	if d.shared {
		b.total = &d.algoTotal
	}
	if len(d.shims) > 0 {
		b.queueLen = d.shims[0].queueLen
	}
	d.shims = append(d.shims, b)
}

// replaceSite returns what to splice into site i's slot for algo, wrapped
// when the deployment is traced.
func (d *deployment) replaceSite(i int, algo dist.SiteAlgo) dist.SiteAlgo {
	if d.siteShims == nil {
		return algo
	}
	d.siteShims[i] = d.newSiteShim(algo)
	return d.siteShims[i]
}

// replaceCoord is replaceSite for the coordinator slot.
func (d *deployment) replaceCoord(algo dist.CoordAlgo) dist.CoordAlgo {
	if d.coordShim == nil {
		return algo
	}
	d.coordShim = d.newCoordShim(algo)
	return d.coordShim
}

// setQueueProbe makes every shim sample queueLen at each delivery.
func (d *deployment) setQueueProbe(queueLen func() int) {
	for _, b := range d.shims {
		b.queueLen = queueLen
	}
}

// resetLedgers zeroes every shim's account, so the ledger covers only
// what follows (the timed phase). Single-goroutine runtimes only.
func (d *deployment) resetLedgers() {
	for _, b := range d.shims {
		b.l = algoLedger{}
	}
	d.algoTotal = 0
}

// ledger sums every shim's account. On the TCP transport the caller must
// hold each node's lock (NetSite.Inject, Coordinator.Inject) while reading.
func (d *deployment) ledger() algoLedger {
	var a algoLedger
	for _, b := range d.shims {
		a.add(&b.l)
	}
	return a
}
