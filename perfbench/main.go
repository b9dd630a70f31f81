// Command perfbench is the repository benchmark. It drives the tracking
// runtimes — dist.Sim, dist.AsyncSim and the dist TCP transport — through
// seeded closed-loop workloads, checks every estimate against the exact
// answer it computes on its own side, and prints one JSON result line.
//
//	bash perfbench/run.sh --workload sim-engine --seed 1 --seconds 20 --trace 0
//
// A run repeats episodes — each a fresh deployment, an untimed warm-up
// prefix, then the timed phase — in whole cycles until --seconds have
// elapsed, and reports medians over them. A cycle walks a fixed list of
// input seeds derived from --seed (one for most workloads), so the
// protocol counters of the simulated workloads repeat exactly from cycle
// to cycle; the benchmark checks that they do.
//
// With --trace 0 it prints the end-to-end metrics. With --trace 1 it
// alternates untraced and traced cycles, wrapping every algorithm in a
// timing shim, and prints the per-layer ledger: self time per layer, counts
// read from dist.Stats, ClassStats, AsyncSim.Pending, Sim.QueueLen and
// getrusage, and the tracing overhead. On the simulators traced episodes
// must reproduce the untraced counts exactly.
//
// The benchmark's own tests run with `cd perfbench && go test ./...`, and
// `python3 perfbench/steady.py` repeats the ten-seed steadiness check.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// workload is one benchmark workload: a named episode runner.
type workload struct {
	name string
	// variants is how many input seeds one cycle of episodes walks
	// through; a run is a whole number of cycles, so a count summed over
	// the run is the same multiple of one cycle's on every run.
	variants int
	// minCycles is run even when --seconds is shorter than that many
	// cycles take, so every median has enough samples.
	minCycles int
	// deterministic reports that episodes are bit-for-bit repeatable, so
	// each episode's fingerprint must equal the first one of its variant.
	deterministic bool
	// procs, when nonzero, is the GOMAXPROCS the workload runs with.
	procs   int
	episode func(c *config, seed uint64, traced bool, chk *checker) episodeOut
}

var workloads = []workload{
	{name: "sim-engine", variants: 1, minCycles: 6, deterministic: true, episode: simEpisode},
	{name: "async-chaos", variants: 256, minCycles: 4, deterministic: true, episode: asyncEpisode},
	{name: "tcp-loopback", variants: 1, minCycles: 4, procs: tcpProcs, episode: tcpEpisode},
}

// variantSeed is the input seed of one variant of a run's seed.
func variantSeed(seed uint64, v int) uint64 { return seed + uint64(v)*1_000_003 }

// config is one run's parameters. scale shrinks every episode (the tests
// use it); the benchmark always runs at scale 1.
type config struct {
	seed    uint64
	seconds float64
	trace   bool
	scale   float64
}

// sized scales an episode size, keeping it a positive multiple of unit.
func (c *config) sized(n, unit int) int {
	m := int(float64(n)*c.scale) / unit * unit
	if m < unit {
		m = unit
	}
	return m
}

func main() {
	name := flag.String("workload", "", "workload: sim-engine, async-chaos or tcp-loopback")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measurement time in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer ledger instead of the end-to-end metrics")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (sim-engine|async-chaos|tcp-loopback), --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}
	c := &config{seed: *seed, seconds: *seconds, trace: *trace == 1, scale: 1}
	res := runWorkload(w, c, os.Stderr)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// result is the JSON line the benchmark prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload runs whole cycles of w's episodes until the run time is
// spent (and at least minCycles ran), checking determinism and
// traced/untraced identity along the way, and reduces the episodes to the
// metric set the mode reports. With tracing, cycles alternate between
// untraced and traced.
func runWorkload(w *workload, c *config, log io.Writer) result {
	if w.procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w.procs))
	}
	chk := &checker{}
	deadline := time.Now().Add(time.Duration(c.seconds * float64(time.Second)))
	var plain, traced []episodeOut
	ref := make([]*fingerprint, w.variants)
	for cycle := 0; ; cycle++ {
		tr := c.trace && cycle%2 == 1
		for v := 0; v < w.variants; v++ {
			out := w.episode(c, variantSeed(c.seed, v), tr, chk)
			if w.deterministic {
				if ref[v] == nil {
					ref[v] = &out.fp
				} else {
					chk.check(out.fp.equal(ref[v]), "cycle %d variant %d (traced=%v) diverged from its first episode: %s",
						cycle, v, tr, out.fp.diff(ref[v]))
				}
			}
			if tr {
				traced = append(traced, out)
			} else {
				plain = append(plain, out)
			}
		}
		done := cycle + 1
		if c.trace {
			done = (cycle + 1) / 2 // complete untraced+traced pairs
		}
		if time.Now().After(deadline) && done >= w.minCycles && (!c.trace || tr) {
			break
		}
	}
	var m map[string]metricValue
	if c.trace {
		m = layerMetrics(w.name, plain, traced)
	} else {
		m = endToEndMetrics(plain)
	}
	chk.report(log)
	fmt.Fprintf(log, "perfbench: %s seed=%d episodes=%d (traced %d) %s\n",
		w.name, c.seed, len(plain)+len(traced), len(traced), sampleCounts(plain, traced))
	return result{Correct: chk.failed == 0, Attempted: chk.attempted, Failed: chk.failed, Metrics: m}
}
