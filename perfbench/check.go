package main

import (
	"fmt"
	"io"

	"repro/internal/dist"
	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/track"
)

// checker counts correctness checks as operations: each check is one
// attempt, each miss one failure. A miss never aborts the run.
type checker struct {
	attempted, failed int64
	misses            []string
}

func (c *checker) check(ok bool, format string, args ...any) {
	c.attempted++
	if ok {
		return
	}
	c.failed++
	if len(c.misses) < 10 {
		c.misses = append(c.misses, fmt.Sprintf(format, args...))
	}
}

func (c *checker) report(w io.Writer) {
	fmt.Fprintf(w, "perfbench: %d checks, %d failed\n", c.attempted, c.failed)
	for _, m := range c.misses {
		fmt.Fprintf(w, "perfbench: FAILED %s\n", m)
	}
}

// truth is the exact answer the benchmark keeps on its own side: the net
// count of all updates and of the updates each filter in use matches.
type truth struct {
	all, even, odd int64
}

func (t *truth) add(us []stream.Update) {
	for _, u := range us {
		t.all += u.Delta
		if u.Item%2 == 0 {
			t.even += u.Delta
		} else {
			t.odd += u.Delta
		}
	}
}

// of returns the exact aggregate a spec tracks.
func (t *truth) of(s query.Spec) int64 {
	if s.Filter == nil {
		return t.all
	}
	switch s.Filter.Name {
	case "even":
		return t.even
	case "odd":
		return t.odd
	}
	panic("perfbench: no exact answer kept for filter " + s.Filter.Name)
}

// checkEstimate checks one query's estimate against the exact f:
// deterministic families within ε (threshold monitors track at ε/3 and
// must also give the right verdict outside the (1−ε)τ..τ band),
// randomized within the 3ε backstop — its per-step bound is only
// P < 1/3 of exceeding ε.
func checkEstimate(chk *checker, where string, qid int, s query.Spec, f, est int64) {
	err := abs(f - est)
	af := float64(abs(f))
	switch s.Algo {
	case "rand":
		chk.check(float64(err) <= 3*s.Eps*af+1e-9, "%s: rand query %d |%d−%d| > 3·%g·|f|", where, qid, est, f, s.Eps)
	case "threshold":
		chk.check(float64(err) <= s.Eps/3*af+1e-9, "%s: threshold query %d |%d−%d| > %g/3·|f|", where, qid, est, f, s.Eps)
	default:
		chk.check(float64(err) <= s.Eps*af+1e-9, "%s: %s query %d |%d−%d| > %g·|f|", where, s.Algo, qid, est, f, s.Eps)
	}
}

// checkThreshold checks a threshold query's verdict where the problem
// definition fixes it.
func checkThreshold(chk *checker, where string, qid int, s query.Spec, f int64, st track.ThresholdState) {
	switch {
	case f >= s.Tau:
		chk.check(st == track.Above, "%s: threshold query %d says %v at f=%d ≥ τ=%d", where, qid, st, f, s.Tau)
	case float64(f) <= (1-s.Eps)*float64(s.Tau):
		chk.check(st == track.Below, "%s: threshold query %d says %v at f=%d ≤ (1−ε)τ", where, qid, st, f)
	}
}

// checkQueries checks every query of an engine coordinator and returns
// the estimates.
func checkQueries(chk *checker, where string, eng *query.Coord, specs []query.Spec, t *truth) []int64 {
	ests := make([]int64, len(specs))
	for qid, s := range specs {
		est, ok := eng.EstimateQuery(qid)
		chk.check(ok, "%s: query %d vanished", where, qid)
		ests[qid] = est
		f := t.of(s)
		checkEstimate(chk, where, qid, s, f, est)
		if s.Algo == "threshold" {
			st, _ := eng.ThresholdState(qid)
			checkThreshold(chk, where, qid, s, f, st)
		}
	}
	return ests
}

// checkStats checks the accounting invariants: wire bytes are exactly
// Total()·MsgSize, and when per-query tables exist they sum to the
// aggregate on every message counter (StalenessMax as a maximum).
func checkStats(chk *checker, where string, st dist.Stats, class []dist.Stats) {
	chk.check(st.Bytes == st.Total()*dist.MsgSize, "%s: bytes %d ≠ %d messages · %d", where, st.Bytes, st.Total(), dist.MsgSize)
	if class == nil {
		return
	}
	var sum dist.Stats
	for _, c := range class {
		sum.Merge(c)
	}
	agg := st.WithoutLiveness()
	agg.EpochDrops = st.EpochDrops // kept per query, unlike the other liveness counters
	sum = sum.WithoutLiveness()
	sum.EpochDrops = 0
	for _, c := range class {
		sum.EpochDrops += c.EpochDrops
	}
	chk.check(sum == agg, "%s: per-query stats sum %+v ≠ aggregate %+v", where, sum, agg)
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
