package main

import (
	"fmt"
	"io"
	"time"

	"repro/internal/dist"
	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/track"
)

// faultPlan is one crash fault on the TCP runtime: -kill kills a site,
// -kill-coord the coordinator. The driver fires it at its step: checkpoint
// and kill, buffer the victims' updates (the durable local queue a real
// deployment would hold), wait until the replacement may come up, take
// over or revive, replay the backlog. Every method the driver calls is a
// no-op on a nil plan.
type faultPlan struct {
	at      int64
	site    int  // the victim site; -1 for the coordinator
	standby bool // coordinator: warm, restored from the pre-kill checkpoint
	snapDir string
	restore string // coordinator: boot the standby from this directory
	after   time.Duration
	outage  int64 // coordinator: steps of buffered streaming before the revive

	rt    *tcpRuntime
	fresh func() *query.Coord
	out   io.Writer

	snap           []byte
	backlog        []stream.Update
	killed, healed bool
	killedAt       time.Time
	verdictAt      time.Time // site: when the detector's dead verdict was trusted
}

// parseKill resolves a -kill STEP:SITE argument.
func parseKill(spec string, k int) (*faultPlan, error) {
	p := &faultPlan{}
	if _, err := fmt.Sscanf(spec, "%d:%d", &p.at, &p.site); err != nil {
		return nil, fmt.Errorf("-kill wants STEP:SITE, got %q", spec)
	}
	if p.at < 1 || p.site < 0 || p.site >= k {
		return nil, fmt.Errorf("-kill %q: need STEP >= 1 and SITE in [0, %d)", spec, k)
	}
	return p, nil
}

func (p *faultPlan) victim() string {
	if p.site < 0 {
		return "the coordinator"
	}
	return fmt.Sprintf("site %d", p.site)
}

func (p *faultPlan) active() bool { return p != nil && p.killed && !p.healed }

// hold is the plan's per-update hook. It fires the fault at its step,
// reports whether u joins the backlog instead of reaching the runtime, and
// heals the fault once the replacement may come up: for a site,
// -takeover-after past a standing verdict; for the coordinator, one
// progress interval of buffered streaming and -takeover-after past the
// kill.
func (p *faultPlan) hold(u stream.Update, step int64) (held bool, err error) {
	if p == nil || p.healed {
		return false, nil
	}
	if !p.killed {
		if step != p.at {
			return false, nil
		}
		if err := p.kill(step); err != nil {
			return false, fmt.Errorf("pre-kill checkpoint: %w", err)
		}
	}
	if held = p.site < 0 || u.Site == p.site; held {
		p.backlog = append(p.backlog, u)
	}
	if p.site >= 0 && p.verdict(step) && time.Since(p.verdictAt) >= p.after ||
		p.site < 0 && step >= p.at+p.outage && time.Since(p.killedAt) >= p.after {
		err = p.heal(step)
	}
	return held, err
}

// kill quiesces the victim, checkpoints it under its lock, and kills its
// process. The sites survive a coordinator kill; their connections die
// with it.
func (p *faultPlan) kill(step int64) (err error) {
	r := p.rt
	if p.site >= 0 {
		s := r.sites[p.site]
		if err = s.Barrier(); err == nil {
			s.Inject(func(dist.Outbox) { p.snap, err = track.SnapshotSite(r.siteAlgos[p.site]) })
		}
		s.Close()
	} else {
		if err = r.barrier(false); err == nil {
			p.snap, err = checkpoint(r, p.snapDir, step)
		}
		r.close()
		r.down = true
	}
	if err != nil {
		return err
	}
	p.killed, p.killedAt = true, time.Now()
	fmt.Fprintf(p.out, "t=%-10d killed %s (snapshot: %d bytes); buffering its updates\n", step, p.victim(), len(p.snap))
	return nil
}

// verdict reports whether the detector's dead verdict on the victim site
// stands. A heartbeat already in flight when the victim dies can briefly
// rescind a verdict just after we act on it (the detector re-declares once
// the stale beacon drains, but by then the replacement has registered
// against a live-looking slot and the takeover hook never fires). Trust a
// verdict only once the drain window after the kill has passed and the
// verdict still stands.
func (p *faultPlan) verdict(step int64) bool {
	switch {
	case !p.rt.coord.SiteDead(p.site):
		p.verdictAt = time.Time{}
	case p.verdictAt.IsZero() && time.Since(p.killedAt) >= 2*p.rt.hb:
		p.verdictAt = time.Now()
		fmt.Fprintf(p.out, "t=%-10d detector verdict: site %d dead (heartbeat misses: %d)\n",
			step, p.site, p.rt.coord.Stats().HeartbeatMisses)
	}
	return !p.verdictAt.IsZero()
}

// heal brings the replacement up — a site restored from the checkpoint
// into the dead slot, or a coordinator on a new port with every site
// re-dialed — and replays the backlog into it.
func (p *faultPlan) heal(step int64) (err error) {
	r := p.rt
	if p.site >= 0 {
		fresh := r.eng.RebuildSite(p.site)
		if err = track.RestoreSite(fresh, p.snap); err != nil {
			return fmt.Errorf("restore: %w", err)
		}
		if r.sites[p.site], err = r.dial(p.site, fresh); err != nil {
			return fmt.Errorf("takeover: %w", err)
		}
		r.siteAlgos[p.site] = fresh
		r.sites[p.site].Inject(fresh.OnTakeover)
	} else {
		eng := p.fresh()
		if p.restore != "" {
			var from int64
			if eng, from, err = restoreFrom(p.restore, p.fresh); err != nil {
				return err
			}
			fmt.Fprintf(p.out, "t=%-10d standby restored from the step-%d snapshot in %s\n", step, from, p.restore)
		} else if p.standby {
			if err = track.RestoreCoord(eng, p.snap); err != nil {
				return fmt.Errorf("restore: %w", err)
			}
		}
		if err = r.listen(eng, 1); err != nil {
			return fmt.Errorf("standby: %w", err)
		}
	}
	for _, u := range p.backlog {
		r.update(u)
	}
	p.healed = true
	fmt.Fprintf(p.out, "t=%-10d takeover of %s: %d buffered updates replayed\n", step, p.victim(), len(p.backlog))
	return nil
}

// finish heals a fault still open when the stream ends: a short stream can
// end mid-outage, and the smoke still owes a takeover.
func (p *faultPlan) finish(step int64) error {
	switch {
	case p == nil || p.healed:
		return nil
	case !p.killed:
		return fmt.Errorf("stream ended before the fault step %d (only %d updates)", p.at, step)
	}
	if p.site >= 0 {
		deadline := time.Now().Add(10 * time.Second)
		for !p.verdict(step) {
			if time.Now().After(deadline) {
				return fmt.Errorf("detector never declared site %d dead", p.site)
			}
			time.Sleep(p.rt.hb)
		}
	}
	return p.heal(step)
}

// check asserts what the smoke promises: exactly one takeover of the
// victim, and every estimate back inside ε.
func (p *faultPlan) check(st dist.Stats, inEps bool) error {
	if p == nil {
		return nil
	}
	takeovers, smoke := st.Takeovers, "kill-and-takeover"
	if p.site < 0 {
		takeovers, smoke = st.CoordTakeovers, "coordinator kill-and-takeover"
	}
	if takeovers != 1 {
		return fmt.Errorf("expected exactly one takeover of %s, saw %d", p.victim(), takeovers)
	}
	if !inEps {
		return fmt.Errorf("estimate misses ε after the takeover of %s", p.victim())
	}
	fmt.Fprintf(p.out, "%s smoke passed\n", smoke)
	return nil
}
