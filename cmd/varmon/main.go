// Command varmon runs the library as a live distributed monitoring service:
// a coordinator and k sites track an update stream while varmon prints the
// estimates against the exact values, then a per-query report.
//
// The runtime is live TCP on loopback, or with -net MODEL the
// fault-injecting asynchronous simulator (dist.AsyncSim). The coordinator
// always runs the multi-query engine (internal/query): with one query, the
// deterministic tracker of §3.3 at -eps, unless -queries SPECS asks for Q
// concurrent queries — mixed algorithms, ε's, item filters, and at=T
// attaches mid-stream. -http ADDR serves /status, /metrics, /events,
// /healthz and /debug/pprof (":0" picks a port and prints it), and
// -events-out FILE dumps the protocol event trace at exit. -record FILE
// tees the workload into a trace file; -replay FILE drives the run from
// one.
//
// On TCP, -hb arms heartbeat failure detection, and -kill STEP:SITE and
// -kill-coord STEP [-standby] are crash-fault smokes: at update STEP the
// site's or the coordinator's process is killed, the victims' updates
// buffer, a replacement takes over — restored from a pre-kill snapshot for
// a site or a -standby coordinator — and the backlog replays; the run exits
// nonzero unless exactly one takeover happened and every estimate is back
// inside ε. -snapshot-dir DIR persists the coordinator snapshot at every
// progress line, or with -kill-coord only the pre-kill checkpoint; -restore
// DIR boots the coordinator (with -kill-coord, the standby) from the newest
// snapshot there whose integrity hash verifies, skipping damaged files
// loudly.
//
//	varmon -k 4 -n 100000
//	varmon -stream zipf -queries 'det,eps=0.05;freq,eps=0.1,filter=even;rand,eps=0.1,at=50000'
//	varmon -net latency=8,jitter=2,drop=0.01,retrans=3
//	varmon -n 20000 -hb 10ms -kill 8000:1
//	varmon -n 20000 -hb 10ms -kill-coord 8000 -standby -snapshot-dir /tmp/vs -restore /tmp/vs
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/dist"
	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/track"
)

// usageError is a bad flag value; main exits 2 on it, as the flag package
// does on a parse error.
type usageError struct{ error }

func (e usageError) Unwrap() error { return e.error }

func usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

func main() {
	err := run(os.Args[1:], os.Stdout)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return
	}
	fmt.Fprintf(os.Stderr, "varmon: %v\n", err)
	if errors.As(err, new(usageError)) {
		os.Exit(2)
	}
	os.Exit(1)
}

// streamClasses is the CLI's workload menu, in display order. zipf is the
// item workload of appendix H (Zipf-distributed inserts with uniform
// deletions), which gives frequency queries something to track.
var streamClasses = []struct {
	name string
	make func(n int64, seed uint64) stream.Stream
}{
	{"randwalk", func(n int64, seed uint64) stream.Stream { return stream.RandomWalk(n, seed) }},
	{"biased", func(n int64, seed uint64) stream.Stream { return stream.BiasedWalk(n, 0.2, seed) }},
	{"monotone", func(n int64, seed uint64) stream.Stream { return stream.Monotone(n) }},
	{"sawtooth", func(n int64, seed uint64) stream.Stream { return stream.Sawtooth(n, 64, 32) }},
	{"zipf", func(n int64, seed uint64) stream.Stream { return stream.NewItemGen(n, 4096, 1.1, 0.2, seed) }},
}

func makeStream(class string, n int64, seed uint64) (stream.Stream, error) {
	names := make([]string, len(streamClasses))
	for i, c := range streamClasses {
		names[i] = c.name
		if c.name == class {
			return c.make(n, seed), nil
		}
	}
	return nil, usagef("-stream: unknown class %q (valid classes: %s)", class, strings.Join(names, "|"))
}

// run parses args, builds the stream, the engine, the runtime and the
// fault plan, and drives the run, printing to out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("varmon", flag.ContinueOnError)
	var (
		k         = fs.Int("k", 4, "number of sites")
		eps       = fs.Float64("eps", 0.1, "relative error parameter (single-query mode)")
		n         = fs.Int64("n", 100_000, "stream length")
		seed      = fs.Uint64("seed", 1, "stream seed")
		sclass    = fs.String("stream", "randwalk", "stream class: randwalk|biased|monotone|sawtooth|zipf")
		refresh   = fs.Int64("progress", 10, "progress lines to print")
		record    = fs.String("record", "", "tee the workload into this trace file while running")
		replay    = fs.String("replay", "", "drive the run from a recorded trace file instead of a generator")
		netFlag   = fs.String("net", "", "run on the async fault simulator under this model (e.g. latency=8,jitter=2,drop=0.01,retrans=3) instead of live TCP")
		queries   = fs.String("queries", "", "multi-query mode: ';'-separated query specs, e.g. 'det,eps=0.1;freq,eps=0.2,filter=even;rand,eps=0.05,at=50000'")
		httpAddr  = fs.String("http", "", "serve the live admin surface (/status /metrics /events /healthz /debug/pprof) on this address — works with every runtime; \":0\" picks a port and prints it")
		eventsOut = fs.String("events-out", "", "dump the protocol event trace as JSONL to this file at exit")
		dialTO    = fs.Duration("dial-timeout", 2*time.Second, "TCP site dial retry budget (exponential backoff with jitter)")
		hb        = fs.Duration("hb", 0, "TCP failure detection: heartbeat interval (0 = off)")
		hbMiss    = fs.Int("hb-miss", 3, "consecutive missed heartbeat periods before a slot is declared dead")
		kill      = fs.String("kill", "", "crash-fault smoke (TCP single-query mode): kill site at 'STEP:SITE', e.g. 8000:1")
		tkAfter   = fs.Duration("takeover-after", 0, "with -kill/-kill-coord: extra degraded time before the replacement comes up")
		killCo    = fs.Int64("kill-coord", 0, "coordinator crash smoke (TCP single-query mode): kill the coordinator at this step and fail over")
		standby   = fs.Bool("standby", false, "with -kill-coord: warm standby — restore the replacement coordinator from the pre-kill snapshot instead of booting cold")
		snapDir   = fs.String("snapshot-dir", "", "TCP single-query mode: persist coordinator snapshots into this directory at every progress interval")
		restDir   = fs.String("restore", "", "TCP single-query mode: boot the coordinator from the newest intact snapshot in this directory")
	)
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	if *k < 1 {
		return usagef("-k must be at least 1 (got %d)", *k)
	}
	if *refresh < 1 {
		return usagef("-progress must be at least 1 (got %d)", *refresh)
	}
	gen, err := makeStream(*sclass, *n, *seed)
	if err != nil {
		return err
	}
	specs := []query.Spec{{Algo: "det", Eps: *eps}}
	if *queries != "" {
		if specs, err = query.ParseSpecs(*queries); err != nil {
			return err
		}
	} else if err := specs[0].Validate(); err != nil {
		return usagef("-eps: %w", err)
	}
	var model *dist.NetModel
	if *netFlag != "" {
		m, err := dist.ParseNetModel(*netFlag)
		if err != nil {
			return err
		}
		model = &m
	}
	singleTCP := *queries == "" && model == nil
	switch {
	case *kill != "" && !singleTCP:
		return errors.New("-kill needs the single-query live TCP runtime (drop -queries and -net)")
	case *killCo > 0 && !singleTCP:
		return errors.New("-kill-coord needs the single-query live TCP runtime (drop -queries and -net)")
	case *kill != "" && *killCo > 0:
		return errors.New("-kill and -kill-coord are one fault apiece; pick one")
	case *standby && *killCo == 0:
		return errors.New("-standby only means something with -kill-coord")
	case *restDir != "" && *killCo > 0 && !*standby:
		return errors.New("-restore with -kill-coord boots the standby, so it needs -standby")
	case (*snapDir != "" || *restDir != "") && (!singleTCP || *kill != ""):
		return errors.New("-snapshot-dir/-restore need the single-query live TCP runtime (drop -queries, -net and -kill)")
	}
	var fault *faultPlan
	if *kill != "" {
		if fault, err = parseKill(*kill, *k); err != nil {
			return err
		}
	} else if *killCo > 0 {
		fault = &faultPlan{at: *killCo, site: -1, standby: *standby, snapDir: *snapDir, restore: *restDir}
	}

	// Replayed traces already carry site assignments (checked against -k
	// here and per update by the driver); generated workloads get
	// round-robin.
	var st stream.Stream = stream.NewAssign(gen, stream.NewRoundRobin(*k))
	recordK := *k
	if *replay != "" {
		f, err := os.Open(*replay)
		if err != nil {
			return err
		}
		defer f.Close()
		tr, err := stream.NewTraceReader(f)
		if err != nil {
			return err
		}
		if tr.K() > *k {
			return fmt.Errorf("%s was recorded for %d sites; rerun with -k >= %d", *replay, tr.K(), tr.K())
		}
		if tr.K() == 0 {
			fmt.Fprintf(os.Stderr, "varmon: %s predates the site-count header; site ids are validated per update\n", *replay)
		} else {
			// A re-recorded copy stays valid for the k it was assigned
			// over, not the (possibly larger) -k of this run.
			recordK = tr.K()
		}
		st = tr
	}
	plan, initial := newQueryPlan(specs)
	eng, siteAlgos, err := query.New(*k, initial)
	if err != nil {
		return err
	}
	adm := newAdmin(*httpAddr, *eventsOut, out)
	d := &driver{out: out, k: *k, every: max(*n / *refresh, 1), single: *queries == "",
		adm: adm, plan: plan, fault: fault}
	var recFile *os.File
	if *record != "" {
		if recFile, err = os.Create(*record); err != nil {
			return err
		}
		defer recFile.Close()
		if d.rec, err = stream.NewTraceWriter(recFile, recordK); err != nil {
			return err
		}
	}

	if model != nil {
		d.rt = newAsync(eng, siteAlgos, *model, *seed, adm.sink())
		fmt.Fprintf(out, "async simulator: k=%d, Q=%d, net %s\n", *k, len(specs), model)
	} else {
		tcp := &tcpRuntime{k: *k, dialTimeout: *dialTO, hb: *hb, hbMiss: *hbMiss, sink: adm.sink(),
			siteAlgos: siteAlgos, sites: make([]*dist.NetSite, *k)}
		if fault != nil && tcp.hb <= 0 {
			tcp.hb = 25 * time.Millisecond // the fault smokes are pointless without a detector
		}
		defer tcp.close()
		fresh := func() *query.Coord { c, _, _ := query.New(*k, initial); return c }
		coordAlgo, epoch := eng, int64(0)
		if fault == nil {
			d.snapDir = *snapDir
			if *restDir != "" {
				var step int64
				if coordAlgo, step, err = restoreFrom(*restDir, fresh); err != nil {
					return err
				}
				// A new incarnation of an old deployment listens as a
				// standby, so every site folds its books through the
				// takeover handshake when it dials.
				epoch = 1
				fmt.Fprintf(out, "coordinator restored from the step-%d snapshot in %s (f̂ resumes at %d)\n",
					step, *restDir, coordAlgo.Estimate())
			}
		} else {
			fault.rt, fault.fresh, fault.after, fault.outage, fault.out = tcp, fresh, *tkAfter, d.every, out
		}
		if err := tcp.listen(coordAlgo, epoch); err != nil {
			return err
		}
		d.rt = tcp
		fmt.Fprintf(out, "coordinator listening on %s: k=%d, Q=%d (%d pending attach)\n",
			tcp.coord.Addr(), *k, len(specs), len(specs)-len(initial))
	}
	if err := d.drive(st); err != nil {
		return err
	}
	if d.rec != nil {
		if err := d.rec.Flush(); err != nil {
			return fmt.Errorf("flushing trace: %w", err)
		}
		if err := recFile.Close(); err != nil {
			return fmt.Errorf("closing trace: %w", err)
		}
		fmt.Fprintf(out, "recorded %d updates to %s\n", d.rec.Count(), *record)
	}
	return nil
}

// restoreFrom boots an engine coordinator from the newest intact snapshot
// in dir, reporting each damaged file it skips.
func restoreFrom(dir string, fresh func() *query.Coord) (*query.Coord, int64, error) {
	algo, step, skipped, err := restoreLatest(dir, func() any { return fresh() })
	for _, s := range skipped {
		fmt.Fprintf(os.Stderr, "varmon: skipping damaged snapshot %s\n", s)
	}
	if err != nil {
		return nil, 0, err
	}
	return algo.(*query.Coord), step, nil
}

// checkpoint snapshots the coordinator engine, persisting the blob into
// dir unless dir is empty.
func checkpoint(rt runtime, dir string, step int64) (blob []byte, err error) {
	rt.inject(func(eng *query.Coord, _ dist.Outbox) { blob, err = track.SnapshotCoord(eng) })
	if err == nil && dir != "" {
		_, err = writeSnapshotFile(dir, step, blob)
	}
	return blob, err
}

// driver streams the workload into a runtime: ground truth, the trace
// tee, the fault plan, due attaches, progress lines, and the final report
// and checks.
type driver struct {
	out     io.Writer
	k       int
	every   int64
	single  bool   // single-query mode: the final line carries f̂
	snapDir string // persist a coordinator snapshot at every progress line
	adm     *admin
	rt      runtime
	rec     *stream.TraceWriter // nil: not recording
	plan    *queryPlan
	fault   *faultPlan // nil: no fault
	f       int64      // the exact net count
	steps   int64
}

// liveStatus is the /status JSON document.
type liveStatus struct {
	Queries  []query.Status `json:"queries"`
	Stats    dist.Stats     `json:"stats"`
	PerQuery []dist.Stats   `json:"per_query"`
}

func (d *driver) status() any {
	var doc liveStatus
	d.rt.inject(func(eng *query.Coord, _ dist.Outbox) { doc.Queries = eng.Status() })
	doc.Stats, doc.PerQuery = d.rt.stats(), d.rt.classStats()
	return doc
}

// drive is the one loop that consumes the stream. The driver holds the
// admin mutex while it touches the runtime, so HTTP scrapes (which take it
// too) never race the single-threaded simulator or a coordinator takeover.
// The admin surface shuts down and the event trace is dumped on every
// return, a failed run's included.
func (d *driver) drive(st stream.Stream) (err error) {
	if err := d.adm.serve(d.rt.metrics(d.adm), guard(d.adm, d.status)); err != nil {
		return err
	}
	defer func() {
		if ferr := d.adm.finish(); err == nil {
			err = ferr
		}
	}()
	for u, ok := st.Next(); ok; u, ok = st.Next() {
		if u.Site < 0 || u.Site >= d.k {
			return fmt.Errorf("update %d is assigned to site %d, outside [0, %d); was the trace recorded with a larger -k?",
				u.T, u.Site, d.k)
		}
		if d.rec != nil {
			if err := d.rec.Write(u); err != nil {
				return fmt.Errorf("writing trace: %w", err)
			}
		}
		d.adm.lock()
		err := d.step(u)
		d.adm.unlock()
		if err != nil {
			return err
		}
	}
	d.adm.lock()
	stats, inEps, err := d.finish()
	d.adm.unlock()
	if err != nil {
		return err
	}
	return d.fault.check(stats, inEps)
}

func (d *driver) step(u stream.Update) error {
	d.f += u.Delta
	d.plan.apply(u)
	d.steps++
	held, err := d.fault.hold(u, d.steps)
	if err != nil {
		return err
	}
	if !held {
		d.rt.update(u)
	}
	err = d.plan.due(d.out, d.steps, func(spec query.Spec) (qid int, err error) {
		d.rt.inject(func(eng *query.Coord, out dist.Outbox) { qid, err = eng.Attach(spec, out) })
		return qid, err
	})
	if err != nil || u.T%d.every != 0 {
		return err
	}
	// Outside an outage, flush first so the estimates reflect every message
	// sent so far. During one they are the last the coordinator (or the
	// dead one) saw.
	degraded := d.fault.active()
	if !degraded {
		if err := d.rt.barrier(false); err != nil {
			return err
		}
	}
	if d.snapDir != "" {
		if _, err := checkpoint(d.rt, d.snapDir, u.T); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
	}
	line := fmt.Sprintf("t=%-10d f=%-10d", u.T, d.f)
	d.rt.inject(func(eng *query.Coord, _ dist.Outbox) {
		for _, q := range eng.Status() {
			line += fmt.Sprintf("  %s=%d", q.Name, q.Estimate)
		}
	})
	line += fmt.Sprintf("  msgs=%d", d.rt.stats().Total())
	if degraded {
		line += fmt.Sprintf(" buffered=%d [degraded]", len(d.fault.backlog))
	}
	fmt.Fprintln(d.out, line)
	return nil
}

// finish heals a fault still open, drains the runtime, and prints the
// report and the final line. It returns the final counters, whether every
// query ended inside its ε band, and the transport's first error.
func (d *driver) finish() (dist.Stats, bool, error) {
	if err := d.fault.finish(d.steps); err != nil {
		return dist.Stats{}, false, err
	}
	err := d.rt.barrier(true)
	st, class := d.rt.stats(), d.rt.classStats()
	var inEps bool
	var est int64
	d.rt.inject(func(eng *query.Coord, _ dist.Outbox) {
		inEps = d.plan.report(d.out, eng, class)
		est = eng.Estimate()
	})
	head := "total:"
	if d.single {
		head = fmt.Sprintf("final: f=%d f̂=%d |", d.f, est)
	}
	fmt.Fprintf(d.out, "\n%s messages=%d (%.4f/update) wire bytes=%d | dropped=%d retransmitted=%d "+
		"staleness avg=%.1f max=%d | heartbeats=%d misses=%d takeovers=%d coordinator takeovers=%d epoch drops=%d\n",
		head, st.Total(), float64(st.Total())/float64(max(d.steps, 1)), st.Bytes, st.Dropped, st.Retransmitted,
		st.AvgStaleness(), st.StalenessMax, st.HeartbeatsRecv, st.HeartbeatMisses, st.Takeovers, st.CoordTakeovers, st.EpochDrops)
	return st, inEps, err
}
