package main

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"time"

	"partita/internal/budget"
	"partita/internal/ilp"
	"partita/internal/portfolio"
	"partita/internal/selector"
)

// counts are the serial-path work counts of a replay. The exact solver
// and the sweep pipeline run serially, so they must repeat exactly from
// one replay of an op list to the next.
type counts struct {
	Solves       int   `json:"solves"`
	Nodes        int64 `json:"nodes"`
	ColdLPs      int64 `json:"coldLPs"`
	WarmLPs      int64 `json:"warmLPs"`
	Pivots       int64 `json:"pivots"`
	SolvedPoints int   `json:"solvedPoints"`
	ReusedPoints int   `json:"reusedPoints"`
}

// solved adds one serial exact solve to the replay's and its op's counts.
func (r *replay) solved(sel *selector.Selection) {
	r.counts.add(sel)
	c := r.opCounts[r.t.op]
	if c == nil {
		c = &counts{}
		r.opCounts[r.t.op] = c
	}
	c.add(sel)
}

func (c *counts) add(sel *selector.Selection) {
	c.Solves++
	c.Nodes += int64(sel.Nodes)
	c.ColdLPs += sel.Search.ColdLPs
	c.WarmLPs += sel.Search.WarmLPs
	c.Pivots += sel.Search.PrimalPivots + sel.Search.DualPivots
}

// replay runs an op list in-process, calling the layers in partitad's
// order with a span around each call, and mirrors partitad's design
// and result caches so it does the work the daemon does.
type replay struct {
	t       *tracer
	g       *goldenSet
	designs *lru[*built]
	results *lru[bool]
	loaded  map[string]*design

	counts    counts
	opCounts  map[int]*counts
	imps      []float64
	portfolio []*portfolio.Result
	failures  []error
}

// Cache sizes are partitad's defaults.
const (
	designCacheSize = 32
	resultCacheSize = 256
)

func newReplay(t *tracer, g *goldenSet) *replay {
	return &replay{t: t, g: g, designs: newLRU[*built](designCacheSize), results: newLRU[bool](resultCacheSize),
		loaded: map[string]*design{}, opCounts: map[int]*counts{}}
}

// built returns a design through the front end, from the design cache
// when it is there.
func (r *replay) built(name string) (*built, error) {
	if b, ok := r.designs.get(name); ok {
		return b, nil
	}
	d, ok := r.loaded[name]
	if !ok {
		var err error
		if d, err = loadDesign(name); err != nil {
			return nil, err
		}
		r.loaded[name] = d
	}
	b, err := r.t.build(d)
	if err != nil {
		return nil, err
	}
	r.imps = append(r.imps, float64(len(b.db.IMPs)))
	r.designs.put(name, b)
	return b, nil
}

// run replays the whole op list after partitad's warm-up (one analyze
// per bundled design); op i's spans carry op id i.
func (r *replay) run(l *opList) error {
	r.t.op = -1
	for _, name := range bundled {
		if _, err := r.built(name); err != nil {
			return err
		}
	}
	op := 0
	next := func() int {
		r.t.op = op
		op++
		return r.t.begin("op")
	}
	for _, s := range l.Selects {
		sp := next()
		err := r.selectOp(s)
		r.t.end(sp)
		if err != nil {
			return err
		}
	}
	for _, b := range l.Batches {
		sp := next()
		err := r.batchOp(b)
		r.t.end(sp)
		if err != nil {
			return err
		}
	}
	for _, c := range l.Chains {
		if err := r.chainOps(c, next); err != nil {
			return err
		}
	}
	return nil
}

func (r *replay) failf(format string, args ...any) {
	r.failures = append(r.failures, fmt.Errorf(format, args...))
}

func (r *replay) selectOp(op selectOp) error {
	key := op.Design + "|" + strconv.FormatInt(op.RG, 10)
	if _, ok := r.results.get(key); ok {
		return nil
	}
	b, err := r.built(op.Design)
	if err != nil {
		return err
	}
	an := r.t.analysis(b)
	sp := r.t.begin("Analysis.Solve")
	sel, err := an.Solve(context.Background(), selector.Problem{Required: op.RG})
	r.t.end(sp)
	if err != nil {
		return err
	}
	r.solved(sel)
	want, err := r.g.golden(op.Design, "", op.RG)
	if err != nil {
		return err
	}
	if err := check(selection(sel), want); err != nil {
		r.failf("replay select %s rg=%d: %v", op.Design, op.RG, err)
	}
	r.results.put(key, true)
	return nil
}

func (r *replay) batchOp(op batchOp) error {
	b, err := r.built(op.Design)
	if err != nil {
		return err
	}
	pl := r.t.analysis(b).NewPipeline(op.Gains, budget.Budget{}, nil)
	for {
		sp := r.t.begin("Pipeline.Next")
		pt, ok, err := pl.Next(context.Background())
		r.t.end(sp)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if !pt.Reused {
			r.solved(pt.Sel)
		}
		want, err := r.g.golden(op.Design, "", pt.Required)
		if err != nil {
			return err
		}
		if err := check(selection(pt.Sel), want); err != nil {
			r.failf("replay batch %s rg=%d: %v", op.Design, pt.Required, err)
		}
	}
	st := pl.Stats()
	r.counts.SolvedPoints += st.Solved
	r.counts.ReusedPoints += st.Reused
	if c := r.opCounts[r.t.op]; c != nil {
		c.SolvedPoints, c.ReusedPoints = st.Solved, st.Reused
	}
	return nil
}

// chainOps replays a chain as partitad runs it: every op is a cold
// portfolio re-solve of the base problem under the merged edit history,
// seeded with the parent's chosen methods.
func (r *replay) chainOps(ch chain, next func() int) error {
	rg, areas := ch.RG, map[string]float64{}
	var seed *selector.Selection
	for i := 0; i <= len(ch.Edits); i++ {
		if i > 0 {
			if e := ch.Edits[i-1]; e.RG > 0 {
				rg = e.RG
			} else {
				areas[e.IP] = e.Area
			}
		}
		sp := next()
		b, err := r.built(ch.Design)
		if err != nil {
			return err
		}
		an := r.t.analysis(b)
		delta := selector.Delta{Required: &rg}
		if len(areas) > 0 {
			delta.IPArea = map[string]float64{}
			for k, v := range areas {
				delta.IPArea[k] = v
			}
		}
		ps := r.t.begin("portfolio.Reselect")
		res, _, err := portfolio.Reselect(context.Background(), an, seed, delta, selector.Problem{}, portfolio.Config{Gap: portfolioGap})
		r.t.end(ps)
		r.t.end(sp)
		if err != nil {
			return err
		}
		r.portfolio = append(r.portfolio, res)
		want, err := r.g.golden(ch.Design, areaState(b.d, areas), rg)
		if err != nil {
			return err
		}
		if err := check(selection(res.Sel), want); err != nil {
			r.failf("replay chain %s step %d: %v", ch.Design, i, err)
		}
		if res.First.Gap > portfolioGap+1e-9 {
			r.failf("replay chain %s step %d: first gap %g", ch.Design, i, res.First.Gap)
		}
		seed = nil
		if res.Sel != nil && len(res.Sel.Chosen) > 0 {
			seed = &selector.Selection{Status: ilp.Feasible, Chosen: res.Sel.Chosen}
		}
	}
	return nil
}

// mismatches lists the ops whose serial-path counts differ between two
// replays of one op list.
func (r *replay) mismatches(o *replay) []int {
	var ops []int
	for op, c := range r.opCounts {
		if oc := o.opCounts[op]; oc == nil || *oc != *c {
			ops = append(ops, op)
		}
	}
	for op := range o.opCounts {
		if r.opCounts[op] == nil {
			ops = append(ops, op)
		}
	}
	sort.Ints(ops)
	return ops
}

// layerMetrics are the replay's per-layer numbers.
func (r *replay) layerMetrics() map[string]float64 {
	t := r.t
	parse := t.durations("cprog.Parse")
	for i, d := range t.durations("cprog.Analyze") {
		parse[i] += d
	}
	solve := t.durations("Analysis.Solve")
	m := map[string]float64{
		"frontend.parse_ms_p50":    percentile(parse, 50),
		"frontend.lower_ms_p50":    percentile(t.durations("lower.Compile"), 50),
		"frontend.imp_ms_p50":      percentile(t.durations("imp.Generate"), 50),
		"frontend.imps_per_design": mean(r.imps),
		"selector.analysis_ms_p50": percentile(t.durations("selector.NewAnalysis"), 50),
		"selector.solve_ms_p50":    percentile(solve, 50),
		"selector.solve_ms_p90":    percentile(solve, 90),
		"selector.point_ms_p50":    percentile(t.durations("Pipeline.Next"), 50),
		"selector.solved_points":   float64(r.counts.SolvedPoints),
		"selector.reuse_ratio":     ratio(float64(r.counts.ReusedPoints), float64(r.counts.ReusedPoints+r.counts.SolvedPoints)),
		"ilp.nodes_per_solve":      ratio(float64(r.counts.Nodes), float64(r.counts.Solves)),
		"ilp.cold_lps_per_solve":   ratio(float64(r.counts.ColdLPs), float64(r.counts.Solves)),
		"ilp.warm_lps_per_solve":   ratio(float64(r.counts.WarmLPs), float64(r.counts.Solves)),
		"ilp.pivots_per_node":      ratio(float64(r.counts.Pivots), float64(r.counts.Nodes)),
	}
	var first, settle []float64
	var confirmed, seeded float64
	for _, p := range r.portfolio {
		first = append(first, ms(p.First.Elapsed))
		settle = append(settle, ms(p.Settled))
		if p.Confirmed {
			confirmed++
		}
		if p.Seeded {
			seeded++
		}
	}
	m["portfolio.first_ms_p50"] = percentile(first, 50)
	m["portfolio.settle_ms_p50"] = percentile(settle, 50)
	m["portfolio.confirmed_ratio"] = ratio(confirmed, float64(len(r.portfolio)))
	m["portfolio.seeded_ratio"] = ratio(seeded, float64(len(r.portfolio)))
	return m
}

// layerTime is the replay time ops spent inside layer calls: the
// spans directly under the op roots.
func (r *replay) layerTime() time.Duration {
	var total time.Duration
	for _, s := range r.t.spans {
		if s.Parent >= 0 && r.t.spans[s.Parent].Name == "op" {
			total += s.End - s.Start
		}
	}
	return total
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
