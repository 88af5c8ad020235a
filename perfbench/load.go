package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"partita"
	"partita/internal/service"
)

// clients is the number of closed-loop load generators: one per core
// of the 2-core host the benchmark was sized on.
const clients = 2

// portfolioGap is partitad's default portfolio acceptability gap; a
// first answer must be at least this close to proven.
const portfolioGap = 0.05

// record is the client's view of one op.
type record struct {
	Latency time.Duration
	// End is when the client saw the op's answer.
	End time.Time
	// First is the time to the first answer the client can act on: the
	// first point event of a batch, the result itself for a job.
	First time.Duration
	// QueueMs and RunMs are partitad's own job timestamps
	// (startedAt−submittedAt, finishedAt−startedAt; a batch reports
	// its elapsed time as RunMs). Started is false for an op answered
	// at submit from the result cache.
	QueueMs, RunMs, ServerMs float64
	Started                  bool
	IsJob                    bool
	Dispositions             map[string]int
	Err                      error
}

// loadRun drives one op list against a running partitad.
type loadRun struct {
	c       []*client
	g       *goldenSet
	designs map[string]*design
	designM sync.Mutex
}

func (r *loadRun) design(name string) (*design, error) {
	r.designM.Lock()
	defer r.designM.Unlock()
	if d, ok := r.designs[name]; ok {
		return d, nil
	}
	d, err := loadDesign(name)
	if err != nil {
		return nil, err
	}
	r.designs[name] = d
	return d, nil
}

// drive runs the op list with the closed-loop clients and returns one
// record per op, in op-list order, and the wall time.
func drive(base string, l *opList, g *goldenSet) ([]record, time.Duration) {
	r := &loadRun{g: g, designs: map[string]*design{}}
	for i := 0; i < clients; i++ {
		r.c = append(r.c, newClient(base))
	}
	var recs []record
	var per [][]record // chain ops, per chain
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	switch {
	case len(l.Selects) > 0:
		recs = make([]record, len(l.Selects))
		for ci := 0; ci < clients; ci++ {
			wg.Add(1)
			go func(c *client) {
				defer wg.Done()
				for i := int(next.Add(1) - 1); i < len(l.Selects); i = int(next.Add(1) - 1) {
					recs[i] = r.selectOp(c, l.Selects[i])
				}
			}(r.c[ci])
		}
	case len(l.Batches) > 0:
		recs = make([]record, len(l.Batches))
		for ci := 0; ci < clients; ci++ {
			wg.Add(1)
			go func(c *client) {
				defer wg.Done()
				for i := int(next.Add(1) - 1); i < len(l.Batches); i = int(next.Add(1) - 1) {
					recs[i] = r.batchOp(c, l.Batches[i])
				}
			}(r.c[ci])
		}
	default:
		per = make([][]record, len(l.Chains))
		for ci := 0; ci < clients; ci++ {
			wg.Add(1)
			go func(c *client) {
				defer wg.Done()
				for i := int(next.Add(1) - 1); i < len(l.Chains); i = int(next.Add(1) - 1) {
					per[i] = r.chainOps(c, l.Chains[i])
				}
			}(r.c[ci])
		}
	}
	wg.Wait()
	for _, p := range per {
		recs = append(recs, p...)
	}
	return recs, time.Since(start)
}

// jobRecord fills the service-side timings of a finished job.
func jobRecord(v service.JobView, lat time.Duration) record {
	rec := record{Latency: lat, First: lat, IsJob: true, End: time.Now()}
	if v.FinishedAt != nil {
		rec.ServerMs = ms(v.FinishedAt.Sub(v.SubmittedAt))
		if v.StartedAt != nil {
			rec.Started = true
			rec.QueueMs = ms(v.StartedAt.Sub(v.SubmittedAt))
			rec.RunMs = ms(v.FinishedAt.Sub(*v.StartedAt))
		}
	}
	return rec
}

func (r *loadRun) selectOp(c *client, op selectOp) record {
	d, err := r.design(op.Design)
	if err != nil {
		return record{Err: err}
	}
	start := time.Now()
	v, err := c.run(d.spec(op.RG))
	rec := jobRecord(v, time.Since(start))
	if err == nil {
		err = r.checkJob(v, op.Design, "", op.RG, false)
	}
	if err != nil {
		rec.Err = fmt.Errorf("select %s rg=%d: %w", op.Design, op.RG, err)
	}
	return rec
}

// checkJob checks a terminal job view against the golden of (design,
// area state, rg); portfolio results must also deliver a first answer
// within the acceptability gap.
func (r *loadRun) checkJob(v service.JobView, name, state string, rg int64, portfolio bool) error {
	if v.Status != service.StatusDone {
		return fmt.Errorf("status %s: %s", v.Status, v.Error)
	}
	if v.Result == nil || v.Result.Selection == nil {
		return fmt.Errorf("no selection in result")
	}
	want, err := r.g.golden(name, state, rg)
	if err != nil {
		return err
	}
	if err := check(v.Result.Selection, want); err != nil {
		return err
	}
	if portfolio {
		p := v.Result.Selection.Portfolio
		if p == nil {
			return fmt.Errorf("portfolio result without attribution")
		}
		if p.FirstGap < 0 || p.FirstGap > portfolioGap+1e-9 {
			return fmt.Errorf("first answer gap %g exceeds %g", p.FirstGap, portfolioGap)
		}
	}
	return nil
}

func (r *loadRun) batchOp(c *client, op batchOp) record {
	d, err := r.design(op.Design)
	if err != nil {
		return record{Err: err}
	}
	spec := service.BatchSpec{Defaults: d.spec(0)}
	for _, g := range op.Gains {
		spec.Points = append(spec.Points, service.BatchPoint{RequiredGain: g})
	}
	start := time.Now()
	bs, err := c.batch(spec, start)
	rec := record{Latency: time.Since(start), End: time.Now()}
	if err == nil {
		rec.First = bs.First
		rec.RunMs = float64(bs.Summary.ElapsedMs)
		rec.Started = true
		rec.Dispositions = map[string]int{}
		err = r.checkBatch(bs, op)
		for _, p := range bs.Points {
			rec.Dispositions[p.Disposition]++
		}
	}
	if err != nil {
		rec.Err = fmt.Errorf("batch %s: %w", op.Design, err)
	}
	return rec
}

// checkBatch checks every point, however partitad disposed of it.
func (r *loadRun) checkBatch(bs *batchStream, op batchOp) error {
	if len(bs.Points) != len(op.Gains) || bs.Summary.Failed > 0 {
		return fmt.Errorf("%d of %d points settled, %d failed", len(bs.Points), len(op.Gains), bs.Summary.Failed)
	}
	for i, rg := range op.Gains {
		p := bs.Points[i]
		if p == nil || p.Error != "" {
			return fmt.Errorf("point %d missing or failed", i)
		}
		want, err := r.g.golden(op.Design, "", rg)
		if err != nil {
			return err
		}
		if err := check(p.Selection, want); err != nil {
			return fmt.Errorf("point %d rg=%d (%s): %w", i, rg, p.Disposition, err)
		}
	}
	return nil
}

// chainOps runs one portfolio chain: a portfolio select, then each edit
// derived from the previous job. An op that fails ends the chain, and
// its remaining ops count as failed.
func (r *loadRun) chainOps(c *client, ch chain) []record {
	recs := make([]record, 0, 1+len(ch.Edits))
	fail := func(err error) []record {
		for len(recs) < cap(recs) {
			recs = append(recs, record{Err: err})
		}
		return recs
	}
	d, err := r.design(ch.Design)
	if err != nil {
		return fail(err)
	}
	spec := d.spec(ch.RG)
	spec.Mode = service.ModePortfolio
	rg, areas := ch.RG, map[string]float64{}
	start := time.Now()
	v, err := c.run(spec)
	for i := 0; ; i++ {
		rec := jobRecord(v, time.Since(start))
		if err == nil {
			err = r.checkJob(v, ch.Design, areaState(d, areas), rg, true)
		}
		if err != nil {
			rec.Err = fmt.Errorf("chain %s step %d: %w", ch.Design, i, err)
			recs = append(recs, rec)
			return fail(rec.Err)
		}
		recs = append(recs, rec)
		if i == len(ch.Edits) {
			return recs
		}
		e := ch.Edits[i]
		var delta partita.Delta
		if e.RG > 0 {
			rg = e.RG
			delta.Required = &e.RG
		} else {
			areas[e.IP] = e.Area
			delta.IPArea = map[string]float64{e.IP: e.Area}
		}
		start = time.Now()
		v, err = c.edit(v.ID, service.EditRequest{Edits: []partita.Delta{delta}})
	}
}
