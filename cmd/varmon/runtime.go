package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/stream"
)

// runtime is the deployment the driver streams into: the asynchronous
// simulator or live TCP. The driver calls it with the admin mutex held;
// the callbacks metrics builds take the mutex themselves.
type runtime interface {
	update(u stream.Update)
	// inject runs fn with the current coordinator engine and its outbox,
	// serialized against message delivery.
	inject(fn func(eng *query.Coord, out dist.Outbox))
	// barrier makes the estimates reflect every message sent so far; a
	// final barrier drains the network until the protocol stops. It
	// returns the transport's first error.
	barrier(final bool) error
	stats() dist.Stats
	classStats() []dist.Stats
	metrics(a *admin) *obs.Metrics
}

// asyncRuntime is the fault-injecting simulator (-net).
type asyncRuntime struct {
	sim *dist.AsyncSim
	eng *query.Coord
	k   int
}

func newAsync(eng *query.Coord, sites []dist.SiteAlgo, model dist.NetModel, seed uint64, sink dist.EventSink) *asyncRuntime {
	sim := dist.NewAsyncSim(eng, sites, model, seed)
	sim.SetClassifier(eng)
	sim.Events = sink
	return &asyncRuntime{sim: sim, eng: eng, k: len(sites)}
}

func (r *asyncRuntime) update(u stream.Update) { r.sim.Step(u) }

func (r *asyncRuntime) inject(fn func(*query.Coord, dist.Outbox)) {
	r.sim.Inject(func(out dist.Outbox) { fn(r.eng, out) })
}

func (r *asyncRuntime) barrier(final bool) error {
	if final {
		r.sim.Flush()
	}
	return nil
}

func (r *asyncRuntime) stats() dist.Stats { return r.sim.Stats() }

func (r *asyncRuntime) classStats() []dist.Stats { return r.sim.ClassStats() }

func (r *asyncRuntime) health() obs.Health {
	if r.sim.CoordCrashed() {
		return obs.Health{Detail: "coordinator crashed"}
	}
	for i := 0; i < r.k; i++ {
		if r.sim.Crashed(i) {
			return obs.Health{Detail: fmt.Sprintf("site %d crashed", i)}
		}
		if r.sim.Suspected(i) {
			return obs.Health{Detail: fmt.Sprintf("site %d suspected dead", i)}
		}
	}
	return obs.Health{OK: true}
}

func (r *asyncRuntime) metrics(a *admin) *obs.Metrics {
	return &obs.Metrics{
		Stats:      guard(a, r.stats),
		Classes:    guard(a, r.classStats),
		ClassLabel: "query",
		Health:     guard(a, r.health),
		Gauges: func(emit func(name, help string, value float64)) {
			a.lock()
			now, pending := r.sim.Now(), r.sim.Pending()
			a.unlock()
			emit("virtual_time_ticks", "Simulator virtual clock.", float64(now))
			emit("pending_events", "Undelivered events in the simulator heap.", float64(pending))
		},
	}
}

// tcpRuntime is live TCP on loopback: a Coordinator and one NetSite per
// site. A coordinator takeover rebinds coord, eng and sites to the
// replacement incarnation.
type tcpRuntime struct {
	k           int
	dialTimeout time.Duration
	hb          time.Duration // heartbeat interval; 0: failure detection off
	hbMiss      int
	sink        dist.EventSink
	coord       *dist.Coordinator
	eng         *query.Coord // the coordinator's algorithm
	siteAlgos   []dist.SiteAlgo
	sites       []*dist.NetSite
	down        bool // the coordinator is killed and not yet replaced
}

// listen brings up a coordinator incarnation over eng and dials every site
// into it. Epoch 0 is a first boot; a later epoch listens as a standby that
// announces the takeover to every site that dials.
func (r *tcpRuntime) listen(eng *query.Coord, epoch int64) error {
	var err error
	if epoch == 0 {
		r.coord, err = dist.ListenCoordinator("127.0.0.1:0", r.k, eng)
	} else {
		r.coord, err = dist.ListenCoordinatorStandby("127.0.0.1:0", r.k, eng, epoch)
	}
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	r.eng, r.down = eng, false
	r.coord.SetClassifier(eng)
	r.coord.SetEventSink(r.sink)
	if r.hb > 0 {
		r.coord.SetFailureDetection(r.hb, r.hbMiss)
	}
	for i := range r.sites {
		if r.sites[i], err = r.dial(i, r.siteAlgos[i]); err != nil {
			return err
		}
	}
	return nil
}

func (r *tcpRuntime) dial(i int, algo dist.SiteAlgo) (*dist.NetSite, error) {
	s, err := dist.DialNetSiteRetry(r.coord.Addr(), i, algo, r.dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("dial site %d: %w", i, err)
	}
	if r.hb > 0 {
		s.StartHeartbeats(r.hb)
	}
	return s, nil
}

// close shuts the coordinator and every site down.
func (r *tcpRuntime) close() {
	if r.coord != nil {
		r.coord.Close()
	}
	for _, s := range r.sites {
		if s != nil {
			s.Close()
		}
	}
}

func (r *tcpRuntime) update(u stream.Update) { r.sites[u.Site].Update(u) }

func (r *tcpRuntime) inject(fn func(*query.Coord, dist.Outbox)) {
	r.coord.Inject(func(out dist.Outbox) { fn(r.eng, out) })
}

// barrier runs barrier rounds over every site: two, or for the final
// barrier as many as it takes for the coordinator's protocol counters to
// stop moving — a block collection is a multi-leg cascade. The round cap
// is a safety valve; hitting it means the report may be a mid-cascade
// snapshot, so say so instead of staying silent.
func (r *tcpRuntime) barrier(final bool) error {
	var prev dist.Stats
	for round := 0; round < 16; round++ {
		for _, s := range r.sites {
			if err := s.Barrier(); err != nil {
				return fmt.Errorf("barrier: %w", err)
			}
		}
		// Heartbeat beacons keep the liveness counters moving forever.
		st := r.coord.Stats().WithoutLiveness()
		if !final && round == 1 || final && st == prev {
			return r.coord.Err()
		}
		prev = st
	}
	fmt.Fprintln(os.Stderr, "varmon: network still active after 16 barrier rounds; the report below may be a mid-cascade snapshot")
	return r.coord.Err()
}

func (r *tcpRuntime) stats() dist.Stats { return r.coord.Stats() }

func (r *tcpRuntime) classStats() []dist.Stats { return r.coord.ClassStats() }

// health is the /healthz verdict: degraded while the coordinator is down
// or the failure detector presumes a site slot dead.
func (r *tcpRuntime) health() obs.Health {
	if r.down {
		return obs.Health{Detail: "coordinator down; sites buffering"}
	}
	for i := 0; i < r.k; i++ {
		if r.coord.SiteDead(i) {
			return obs.Health{Detail: fmt.Sprintf("site %d dead", i)}
		}
	}
	return obs.Health{OK: true}
}

func (r *tcpRuntime) metrics(a *admin) *obs.Metrics {
	return &obs.Metrics{
		Stats:      guard(a, r.stats),
		Classes:    guard(a, r.classStats),
		ClassLabel: "query",
		Health:     guard(a, r.health),
	}
}
