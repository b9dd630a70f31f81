package main

import (
	"fmt"
	"io"
	"os"
	"sync"

	"repro/internal/dist"
	"repro/internal/obs"
)

// admin wires the obs layer onto one run: an event ring shared by every
// runtime incarnation the run goes through, an optional HTTP admin server
// (-http), and the final JSONL dump (-events-out). A nil *admin is the
// disabled state — every method no-ops — so runs with neither flag install
// no sinks and pay nothing.
type admin struct {
	httpAddr  string
	eventsOut string
	out       io.Writer
	ring      *obs.Ring
	srv       *obs.Server

	// mu serializes runtime access between the driver loop and the HTTP
	// handlers: the single-threaded simulator needs it, and so does a TCP
	// coordinator takeover, which rebinds the runtime's coordinator.
	mu sync.Mutex
}

func newAdmin(httpAddr, eventsOut string, out io.Writer) *admin {
	if httpAddr == "" && eventsOut == "" {
		return nil
	}
	return &admin{httpAddr: httpAddr, eventsOut: eventsOut, out: out, ring: obs.NewRing(obs.DefaultRingCap)}
}

// sink returns the event sink to install on a runtime: the ring's Emit,
// or nil when observability is off (runtimes nil-check their sink, so
// nil keeps their hot paths allocation-free).
func (a *admin) sink() dist.EventSink {
	if a == nil {
		return nil
	}
	return a.ring.Emit
}

// lock/unlock guard driver-loop runtime access against HTTP reads; both
// no-op when observability is off.
func (a *admin) lock() {
	if a != nil {
		a.mu.Lock()
	}
}

func (a *admin) unlock() {
	if a != nil {
		a.mu.Unlock()
	}
}

// guard wraps fn to run under the admin mutex — the form the metrics and
// status callbacks take.
func guard[T any](a *admin, fn func() T) func() T {
	return func() T {
		a.lock()
		defer a.unlock()
		return fn()
	}
}

// serve starts the HTTP admin surface when -http was given. The metrics
// registry gains the event ring and the Go runtime gauges; the chosen
// address (real port even for ":0") is printed so scripts and smokes can
// scrape it.
func (a *admin) serve(m *obs.Metrics, status func() any) error {
	if a == nil || a.httpAddr == "" {
		return nil
	}
	m.Ring = a.ring
	m.Runtime = true
	srv, err := obs.Serve(a.httpAddr, obs.NewHandler(&obs.Admin{
		Status:  status,
		Metrics: m,
		Ring:    a.ring,
	}))
	if err != nil {
		return fmt.Errorf("admin http on %s: %w", a.httpAddr, err)
	}
	a.srv = srv
	fmt.Fprintf(a.out, "admin surface on %s (/status /metrics /events /healthz /debug/pprof)\n", srv.URL())
	return nil
}

// finish shuts the admin server down gracefully (no leaked listener) and
// dumps the retained event trace to -events-out. The caller must not hold
// the admin mutex, which in-flight handlers may be waiting on.
func (a *admin) finish() error {
	if a == nil {
		return nil
	}
	if a.srv != nil {
		if err := a.srv.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "varmon: admin shutdown: %v\n", err)
		}
	}
	if a.eventsOut == "" {
		return nil
	}
	f, err := os.Create(a.eventsOut)
	if err != nil {
		return err
	}
	events := a.ring.Snapshot()
	if err := obs.WriteJSONL(f, events); err != nil {
		f.Close()
		return fmt.Errorf("writing events: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("closing events: %w", err)
	}
	if ev := a.ring.Evicted(); ev > 0 {
		fmt.Fprintf(a.out, "wrote %d events to %s (%d older events evicted from the %d-deep ring)\n",
			len(events), a.eventsOut, ev, obs.DefaultRingCap)
	} else {
		fmt.Fprintf(a.out, "wrote %d events to %s\n", len(events), a.eventsOut)
	}
	return nil
}
