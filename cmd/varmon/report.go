package main

import (
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/dist"
	"repro/internal/query"
	"repro/internal/stream"
)

// queryPlan splits specs into the initially attached set and the pending
// mid-stream attaches, preserving CLI order in the final report, and keeps
// the exact value each spec's estimate is judged against.
type queryPlan struct {
	specs []query.Spec
	qid   []int   // spec index -> query id, -1 until attached
	truth []int64 // spec index -> exact net count, restricted to the filter when there is one
}

func newQueryPlan(specs []query.Spec) (*queryPlan, []query.Spec) {
	p := &queryPlan{specs: specs, qid: make([]int, len(specs)), truth: make([]int64, len(specs))}
	var initial []query.Spec
	for i, s := range specs {
		if s.AttachAt > 0 {
			p.qid[i] = -1
			continue
		}
		p.qid[i] = len(initial)
		initial = append(initial, s)
	}
	return p, initial
}

// apply folds u into every spec's exact value: the whole history, since a
// query attached mid-stream bootstraps what it missed. For a frequency
// query the value is F1, the same net count.
func (p *queryPlan) apply(u stream.Update) {
	for i, s := range p.specs {
		if s.Filter == nil || s.Filter.Match(u.Item) {
			p.truth[i] += u.Delta
		}
	}
}

// due invokes attach for every pending spec whose attach point has passed.
func (p *queryPlan) due(out io.Writer, step int64, attach func(spec query.Spec) (int, error)) error {
	for i, s := range p.specs {
		if p.qid[i] < 0 && step >= s.AttachAt {
			qid, err := attach(s)
			if err != nil {
				return fmt.Errorf("attach %s: %w", s.Label(i), err)
			}
			p.qid[i] = qid
			fmt.Fprintf(out, "t=%-10d attached query %s (qid %d)\n", step, s.Label(qid), qid)
		}
	}
	return nil
}

// report prints the final per-query table and reports whether every
// attached query finished inside its ε band.
func (p *queryPlan) report(out io.Writer, eng *query.Coord, class []dist.Stats) bool {
	fmt.Fprintf(out, "\n%-12s %-10s %-7s %-10s %-10s %-9s %-6s %-9s %-11s %s\n",
		"query", "algo", "eps", "estimate", "true", "rel.err", "in-ε", "msgs", "wire bytes", "note")
	allOK := true
	for i, spec := range p.specs {
		qid := p.qid[i]
		if qid < 0 {
			fmt.Fprintf(out, "%-12s %-10s %-7g never attached (at=%d > n)\n", spec.Label(i), spec.Algo, spec.Eps, spec.AttachAt)
			continue
		}
		est, _ := eng.EstimateQuery(qid)
		want := p.truth[i]
		re := relErr(want, est)
		ok := re <= spec.Eps+1e-9
		var notes []string
		if spec.Filter != nil {
			notes = append(notes, "filter="+spec.Filter.Name)
		}
		if st, isThresh := eng.ThresholdState(qid); isThresh {
			// The threshold promise is the two-sided decision, judged on
			// the underlying tracked estimate above.
			notes = append(notes, fmt.Sprintf("f %s τ=%d", st, spec.Tau))
		}
		if spec.AttachAt > 0 {
			notes = append(notes, fmt.Sprintf("attached@%d", spec.AttachAt))
		}
		var msgs, bytes int64
		if qid < len(class) {
			msgs, bytes = class[qid].Total(), class[qid].Bytes
		}
		fmt.Fprintf(out, "%-12s %-10s %-7g %-10d %-10d %-9.5f %-6v %-9d %-11d %s\n",
			spec.Label(qid), spec.Algo, spec.Eps, est, want, re, ok, msgs, bytes, strings.Join(notes, " "))
		allOK = allOK && ok
	}
	if !allOK {
		fmt.Fprintln(out, "WARNING: a query finished outside its ε band")
	}
	return allOK
}

// relErr is |f − est| / |f|, or the absolute error when f = 0.
func relErr(f, est int64) float64 {
	diff := math.Abs(float64(f - est))
	if f == 0 {
		return diff
	}
	return diff / math.Abs(float64(f))
}
