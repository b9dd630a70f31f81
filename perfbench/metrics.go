package main

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"

	"repro/internal/dist"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics a user of the monitor sees, reported with
// --trace 0 on every workload. Each is defined on all three runtimes.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"ingest_ups", "1/s"},
	{"msgs_per_update", "msg/update"},
	{"heap_mb", "MB"},
	{"checkpoint_ms", "ms"},
	{"state_kb", "KB"},
	{"fresh_p50_us", "us"},
	{"fresh_p90_us", "us"},
}

// maxQueries is the widest query mix of any workload; the per-query
// message metrics are reported for q0..q7 on every workload (0 where a
// workload registers fewer queries).
const maxQueries = 8

// perLayer are the traced-run metrics, reported with --trace 1. A layer a
// workload does not exercise reports 0.
var perLayer = append([]metricSpec{
	{"sim.step_self_ns_per_update", "ns/update"},
	{"sim.deliver_self_ns_per_msg", "ns/msg"},
	{"sim.queue_max", "msg"},
	{"async.step_self_ns_per_update", "ns/update"},
	{"async.self_ns_per_event", "ns/event"},
	{"async.pending_max", "event"},
	{"async.dropped", "msg"},
	{"async.retransmitted", "count"},
	{"async.epoch_drops", "msg"},
	{"async.heartbeats_per_update", "hb/update"},
	{"async.staleness_ticks", "ticks"},
	{"tcp.update_ns_p50", "ns"},
	{"tcp.update_ns_p99", "ns"},
	{"tcp.cpu_ns_per_msg", "ns/msg"},
	{"tcp.ctxsw_per_msg", "switch/msg"},
	{"tcp.barrier_us_p50", "us"},
	{"tcp.quiesce_rounds", "round"},
	{"algo.site_ns_per_update", "ns/update"},
	{"algo.site_calls_per_update", "call/update"},
	{"algo.site_msg_ns_per_msg", "ns/msg"},
	{"algo.coord_ns_per_msg", "ns/msg"},
	{"snapshot.coord_us", "us"},
	{"snapshot.sites_us", "us"},
	{"restore.coord_us", "us"},
	{"restore.sites_us", "us"},
	{"snapshot.alloc_b", "B"},
	{"stream.gen_ns_per_update", "ns/update"},
	{"mem.alloc_b_per_update", "B/update"},
	{"gc.cycles_per_mupdate", "cycle/Mupdate"},
	{"trace.ingest_ratio", "ratio"},
	{"fresh.p99_us", "us"},
}, queryMetrics()...)

func queryMetrics() []metricSpec {
	out := make([]metricSpec, maxQueries)
	for q := range out {
		out[q] = metricSpec{fmt.Sprintf("query.msgs_per_update.q%d", q), "msg/update"}
	}
	return out
}

// episodeOut is what one episode measured. Times cover only the timed
// runtime calls unless named otherwise.
type episodeOut struct {
	setup   time.Duration // construct + connect + warm-up prefix
	updates int64         // timed updates
	ingest  time.Duration // time inside the timed runtime calls
	// rates are ingest rates (updates/s) over fixed segments of the timed
	// phase; ingest_ups is their median, which a few seconds of a noisy
	// neighbour cannot move far.
	rates []float64
	msgs  int64  // Stats.Total() over the timed phase
	alloc uint64 // heap bytes allocated inside the timed calls
	heap  uint64 // live heap after runtime.GC() at the end of the timed phase
	gc    uint64 // GC cycles during the timed phase
	ckpts []checkpoint
	fresh []time.Duration
	fp    fingerprint
	layer layerOut // traced episodes only
}

// checkpoint is one full checkpoint round trip: snapshot the coordinator
// and every site, restore into a fresh deployment, compare estimates.
type checkpoint struct {
	total                      time.Duration
	snapCoord, snapSites       time.Duration
	restoreCoord, restoreSites time.Duration
	snapAlloc                  uint64
	bytes                      int
}

// fingerprint is an episode's deterministic end state: what must repeat
// exactly across episodes of one seed, traced or not.
type fingerprint struct {
	stats      dist.Stats
	class      []dist.Stats
	ests       []int64
	stateBytes int
}

func (f *fingerprint) equal(o *fingerprint) bool { return reflect.DeepEqual(f, o) }

func (f *fingerprint) diff(o *fingerprint) string {
	switch {
	case f.stats != o.stats:
		return fmt.Sprintf("stats %+v vs %+v", f.stats, o.stats)
	case !reflect.DeepEqual(f.class, o.class):
		return "per-query stats differ"
	case !reflect.DeepEqual(f.ests, o.ests):
		return fmt.Sprintf("estimates %v vs %v", f.ests, o.ests)
	}
	return fmt.Sprintf("state bytes %d vs %d", f.stateBytes, o.stateBytes)
}

// layerOut is the per-layer ledger of one traced episode.
type layerOut struct {
	algo  algoLedger
	genNs int64 // stream generation, outside every timer
	// Sim self time (StepBatch span minus algo spans), split by whether
	// the call delivered messages.
	simIdleNs, simIdleUpdates int64
	simBusyNs, simBusyUpdates int64
	simMsgs                   int64
	// AsyncSim self time and event counts.
	asyncNs, asyncEvents int64
	pendingMax           int
	stats                dist.Stats // timed-phase delta
	classMsgs            []int64    // per query, timed phase
	// TCP transport.
	updateNs      []int64
	barrierNs     []int64
	quiesceRounds int64
	quiesces      int64
	cpuNs, ctxsw  int64
}

// endToEndMetrics reduces untraced episodes to the end-to-end metric set.
func endToEndMetrics(eps []episodeOut) map[string]metricValue {
	var setups, rates, heaps, ckpt, fresh, state []float64
	var updates, msgs int64
	for _, e := range eps {
		setups = append(setups, e.setup.Seconds())
		rates = append(rates, e.rates...)
		heaps = append(heaps, float64(e.heap)/1e6)
		updates += e.updates
		msgs += e.msgs
		for _, c := range e.ckpts {
			ckpt = append(ckpt, float64(c.total)/1e6)
		}
		state = append(state, float64(e.ckpts[len(e.ckpts)-1].bytes)/1e3)
		for _, f := range e.fresh {
			fresh = append(fresh, float64(f)/1e3)
		}
	}
	vals := map[string]float64{
		"setup_s":         median(setups),
		"ingest_ups":      median(rates),
		"msgs_per_update": float64(msgs) / float64(updates),
		"heap_mb":         median(heaps),
		"checkpoint_ms":   median(ckpt),
		"state_kb":        median(state),
		"fresh_p50_us":    quantile(fresh, 0.50),
		"fresh_p90_us":    quantile(fresh, 0.90),
	}
	return withUnits(endToEnd, vals)
}

// layerMetrics reduces traced episodes to the per-layer ledger; plain
// episodes only supply the untraced side of the tracing overhead.
func layerMetrics(name string, plain, traced []episodeOut) map[string]metricValue {
	var a algoLedger
	var l layerOut
	var updates int64
	var genNs int64
	var gc, alloc uint64
	var rates []float64
	var snapC, snapS, resC, resS, snapAlloc []float64
	class := make([]int64, maxQueries)
	for _, e := range traced {
		x := e.layer
		a.add(&x.algo)
		updates += e.updates
		genNs += x.genNs
		gc += e.gc
		alloc += e.alloc
		rates = append(rates, e.rates...)
		l.simIdleNs += x.simIdleNs
		l.simIdleUpdates += x.simIdleUpdates
		l.simBusyNs += x.simBusyNs
		l.simBusyUpdates += x.simBusyUpdates
		l.simMsgs += x.simMsgs
		l.asyncNs += x.asyncNs
		l.asyncEvents += x.asyncEvents
		l.pendingMax = max(l.pendingMax, x.pendingMax)
		l.stats.Merge(x.stats)
		for q, n := range x.classMsgs {
			class[q] += n
		}
		l.updateNs = append(l.updateNs, x.updateNs...)
		l.barrierNs = append(l.barrierNs, x.barrierNs...)
		l.quiesceRounds += x.quiesceRounds
		l.quiesces += x.quiesces
		l.cpuNs += x.cpuNs
		l.ctxsw += x.ctxsw
		for _, c := range e.ckpts {
			snapC = append(snapC, float64(c.snapCoord)/1e3)
			snapS = append(snapS, float64(c.snapSites)/1e3)
			resC = append(resC, float64(c.restoreCoord)/1e3)
			resS = append(resS, float64(c.restoreSites)/1e3)
			snapAlloc = append(snapAlloc, float64(c.snapAlloc))
		}
	}
	var plainRates, fresh []float64
	for _, e := range plain {
		plainRates = append(plainRates, e.rates...)
		for _, f := range e.fresh {
			fresh = append(fresh, float64(f)/1e3)
		}
	}
	u := float64(updates)
	msgs := float64(l.stats.Total())
	vals := map[string]float64{
		"algo.site_ns_per_update":    ratio(a.siteUpdate.ns, updates),
		"algo.site_calls_per_update": ratio(a.siteUpdate.calls, updates),
		"algo.site_msg_ns_per_msg":   ratio(a.siteMsg.ns, a.siteMsg.calls),
		"algo.coord_ns_per_msg":      ratio(a.coordMsg.ns, a.coordMsg.calls),
		"snapshot.coord_us":          median(snapC),
		"snapshot.sites_us":          median(snapS),
		"restore.coord_us":           median(resC),
		"restore.sites_us":           median(resS),
		"snapshot.alloc_b":           median(snapAlloc),
		"stream.gen_ns_per_update":   ratio(genNs, updates),
		"mem.alloc_b_per_update":     float64(alloc) / u,
		"gc.cycles_per_mupdate":      float64(gc) / u * 1e6,
		"trace.ingest_ratio":         median(rates) / median(plainRates),
		"fresh.p99_us":               quantile(fresh, 0.99),
	}
	for q := 0; q < maxQueries; q++ {
		vals[fmt.Sprintf("query.msgs_per_update.q%d", q)] = float64(class[q]) / u
	}
	switch name {
	case "sim-engine":
		idle := ratio(l.simIdleNs, l.simIdleUpdates)
		vals["sim.step_self_ns_per_update"] = ratio(l.simIdleNs+l.simBusyNs, l.simIdleUpdates+l.simBusyUpdates)
		vals["sim.deliver_self_ns_per_msg"] = (float64(l.simBusyNs) - idle*float64(l.simBusyUpdates)) / float64(max(l.simMsgs, 1))
		vals["sim.queue_max"] = float64(a.queueMax)
	case "async-chaos":
		vals["async.step_self_ns_per_update"] = ratio(l.asyncNs, updates)
		vals["async.self_ns_per_event"] = ratio(l.asyncNs, l.asyncEvents)
		vals["async.pending_max"] = float64(l.pendingMax)
		vals["async.dropped"] = float64(l.stats.Dropped) / float64(len(traced))
		vals["async.retransmitted"] = float64(l.stats.Retransmitted) / float64(len(traced))
		vals["async.epoch_drops"] = float64(l.stats.EpochDrops) / float64(len(traced))
		vals["async.heartbeats_per_update"] = float64(l.stats.HeartbeatsSent) / u
		vals["async.staleness_ticks"] = l.stats.AvgStaleness()
	case "tcp-loopback":
		vals["tcp.update_ns_p50"] = quantile(int64s(l.updateNs), 0.50)
		vals["tcp.update_ns_p99"] = quantile(int64s(l.updateNs), 0.99)
		vals["tcp.cpu_ns_per_msg"] = float64(l.cpuNs) / msgs
		vals["tcp.ctxsw_per_msg"] = float64(l.ctxsw) / msgs
		vals["tcp.barrier_us_p50"] = quantile(int64s(l.barrierNs), 0.50) / 1e3
		vals["tcp.quiesce_rounds"] = ratio(l.quiesceRounds, l.quiesces)
	}
	return withUnits(perLayer, vals)
}

// withUnits attaches units, reporting 0 for a metric the workload's
// layers never produced.
func withUnits(specs []metricSpec, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(specs))
	for _, s := range specs {
		v := vals[s.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	return out
}

// sampleCounts describes how many samples back the percentile metrics.
func sampleCounts(plain, traced []episodeOut) string {
	var ck, fr int
	for _, e := range plain {
		ck += len(e.ckpts)
		fr += len(e.fresh)
	}
	var upd int
	for _, e := range traced {
		upd += len(e.layer.updateNs)
	}
	s := fmt.Sprintf("checkpoint samples=%d fresh samples=%d", ck, fr)
	if upd > 0 {
		s += fmt.Sprintf(" traced update samples=%d", upd)
	}
	return s
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func int64s(xs []int64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for no samples). It sorts a copy.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// rt reads runtime counters without allocating: one reusable sample per
// metric.
type rt struct{ s []metrics.Sample }

func newRT(names ...string) *rt {
	r := &rt{s: make([]metrics.Sample, len(names))}
	for i, n := range names {
		r.s[i].Name = n
	}
	return r
}

func (r *rt) read() uint64 {
	metrics.Read(r.s)
	return r.s[0].Value.Uint64()
}

var (
	allocCounter = newRT("/gc/heap/allocs:bytes")
	gcCounter    = newRT("/gc/cycles/total:gc-cycles")
	liveHeap     = newRT("/gc/heap/live:bytes")
)

// heapAfterGC forces a collection and returns the live heap it marked.
func heapAfterGC() uint64 {
	runtime.GC()
	return liveHeap.read()
}

// segmentClock turns a timed phase into per-segment ingest rates: add
// accounts timed updates and time, and every `every` updates the segment's
// rate is appended to out.rates.
type segmentClock struct {
	every, updates int
	ns             int64
}

func (s *segmentClock) add(out *episodeOut, updates int, ns int64) {
	out.updates += int64(updates)
	out.ingest += time.Duration(ns)
	s.updates += updates
	s.ns += ns
	if s.updates >= s.every {
		out.rates = append(out.rates, float64(s.updates)/(float64(s.ns)/1e9))
		s.updates, s.ns = 0, 0
	}
}
