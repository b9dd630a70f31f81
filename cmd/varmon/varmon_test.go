package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestRunCommandLines drives every command line CI runs through the CLI,
// at small n, plus -net in single- and multi-query mode. Each must succeed:
// the fault smokes fail unless their takeover happened and the estimate is
// back inside ε.
func TestRunCommandLines(t *testing.T) {
	dir := t.TempDir()
	snaps := filepath.Join(dir, "snaps")
	events := filepath.Join(dir, "events.jsonl")
	const net = "latency=8,jitter=2,drop=0.01,retrans=3"
	for _, args := range [][]string{
		{"-k", "3", "-n", "5000", "-stream", "zipf", "-queries", "det,eps=0.1;freq,eps=0.2,filter=even;rand,eps=0.1,at=2500"},
		{"-n", "20000", "-hb", "10ms", "-kill", "8000:1"},
		{"-n", "20000", "-hb", "10ms", "-kill-coord", "8000", "-standby", "-snapshot-dir", snaps, "-restore", snaps},
		{"-n", "20000", "-http", ":0", "-events-out", events},
		{"-n", "20000", "-net", net},
		{"-n", "20000", "-net", net, "-stream", "zipf", "-queries", "det,eps=0.1;rand,eps=0.1,at=10000"},
	} {
		if err := run(args, io.Discard); err != nil {
			t.Errorf("varmon %s: %v", strings.Join(args, " "), err)
		}
	}
	if fi, err := os.Stat(events); err != nil || fi.Size() == 0 {
		t.Errorf("-events-out left no trace: %v", err)
	}
}

// TestRunRecordReplay: a replayed recording drives the run to the same
// final f, and re-recording it reproduces the trace byte for byte.
func TestRunRecordReplay(t *testing.T) {
	dir := t.TempDir()
	rec, rerec := filepath.Join(dir, "w.trace"), filepath.Join(dir, "w2.trace")
	final := regexp.MustCompile(`final: f=(-?\d+) `)
	var first, second bytes.Buffer
	if err := run([]string{"-n", "20000", "-stream", "biased", "-record", rec}, &first); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-replay", rec, "-record", rerec}, &second); err != nil {
		t.Fatal(err)
	}
	f1, f2 := final.FindStringSubmatch(first.String()), final.FindStringSubmatch(second.String())
	if f1 == nil || f2 == nil || f1[1] != f2[1] {
		t.Fatalf("final lines differ: %q vs %q", f1, f2)
	}
	a, _ := os.ReadFile(rec)
	b, _ := os.ReadFile(rerec)
	if len(a) == 0 || !bytes.Equal(a, b) {
		t.Fatalf("re-recorded trace differs (%d vs %d bytes)", len(a), len(b))
	}
}

// TestRunRejects: bad flag values are usage errors (exit 2) naming the
// flag, and flag combinations the runtimes cannot honour are refused
// before anything runs.
func TestRunRejects(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		args  []string
		usage bool
	}{
		{[]string{"-k", "0"}, true},
		{[]string{"-progress", "0"}, true},
		{[]string{"-eps", "0"}, true},
		{[]string{"-stream", "nope"}, true},
		{[]string{"-nope"}, true},
		{[]string{"-queries", "det,eps=2"}, false},
		{[]string{"-net", "latency=x"}, false},
		{[]string{"-kill", "10:1", "-queries", "det,eps=0.1"}, false},
		{[]string{"-kill", "10:1", "-net", "latency=1"}, false},
		{[]string{"-kill-coord", "10", "-queries", "det,eps=0.1"}, false},
		{[]string{"-kill-coord", "10", "-net", "latency=1"}, false},
		{[]string{"-kill", "10:1", "-kill-coord", "10"}, false},
		{[]string{"-standby"}, false},
		{[]string{"-n", "100", "-kill-coord", "50", "-restore", dir}, false},
		{[]string{"-snapshot-dir", dir, "-queries", "det,eps=0.1"}, false},
		{[]string{"-restore", dir, "-net", "latency=1"}, false},
		{[]string{"-snapshot-dir", dir, "-kill", "10:1"}, false},
		{[]string{"-kill", "10"}, false},
		{[]string{"-kill", "10:4"}, false},
		{[]string{"-n", "100", "-kill", "500:1"}, false}, // the stream ends before the fault
	} {
		err := run(c.args, io.Discard)
		if err == nil {
			t.Errorf("varmon %s: accepted", strings.Join(c.args, " "))
			continue
		}
		if got := errors.As(err, new(usageError)); got != c.usage {
			t.Errorf("varmon %s: usage error = %v, want %v (%v)", strings.Join(c.args, " "), got, c.usage, err)
		}
		if c.usage && c.args[0] != "-nope" && !strings.Contains(err.Error(), c.args[0]) {
			t.Errorf("varmon %s: %q does not name the flag", strings.Join(c.args, " "), err)
		}
	}
}
