package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"partita/internal/cdfg"
	"partita/internal/cprog"
	"partita/internal/imp"
	"partita/internal/ip"
	"partita/internal/kernel"
	"partita/internal/lower"
	"partita/internal/selector"
)

// span is one timed call into a layer's public function. Times are
// offsets from the tracer's epoch.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // -1 for an op's root span
	Op     int           `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start"`
	End    time.Duration `json:"end"`
}

// tracer records spans around the calls the replay makes. It is used
// from one goroutine; a nil tracer records nothing.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int
	op    int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string) int {
	if t == nil {
		return 0
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name, Start: time.Since(t.epoch)})
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = time.Since(t.epoch)
	t.open = t.open[:len(t.open)-1]
}

// selfTimes sums, per span name, each span's duration minus the time
// its direct children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		out[s.Name] += s.End - s.Start - child[i]
	}
	return out
}

// durations lists the durations of every span with the given name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, ms(s.End-s.Start))
		}
	}
	return out
}

// write stores the spans as JSON under dir.
func (t *tracer) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

// built is a design through the front end, with its selection analysis
// built on first use, as partitad's design cache holds it.
type built struct {
	d  *design
	db *imp.DB
	an *selector.Analysis
}

// build runs the front end the way partita.Analyze does, with a span
// around each layer call.
func (t *tracer) build(d *design) (*built, error) {
	cat, err := ip.NewCatalog(d.Catalog...)
	if err != nil {
		return nil, err
	}
	sp := t.begin("cprog.Parse")
	f, err := cprog.Parse(d.Source)
	t.end(sp)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", d.Name, err)
	}
	sp = t.begin("cprog.Analyze")
	info, err := cprog.Analyze(f)
	t.end(sp)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", d.Name, err)
	}
	sp = t.begin("lower.Compile")
	_, _, err = lower.Compile(info)
	t.end(sp)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", d.Name, err)
	}
	sp = t.begin("imp.Generate")
	db, err := imp.Generate(info, d.Root, imp.Config{
		Catalog:   cat,
		Area:      kernel.DefaultArea(),
		DataCount: d.DataCount,
		CDFG:      cdfg.DefaultOptions(),
	})
	t.end(sp)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", d.Name, err)
	}
	return &built{d: d, db: db}, nil
}

// analysis returns the design's shared selection analysis, building it
// on first use.
func (t *tracer) analysis(b *built) *selector.Analysis {
	if b.an == nil {
		sp := t.begin("selector.NewAnalysis")
		b.an = selector.NewAnalysis(b.db)
		t.end(sp)
	}
	return b.an
}

// lru is a small least-recently-used map with partitad's cache policy,
// so the replay pays for the front end and for solves where the daemon
// does.
type lru[V any] struct {
	cap  int
	keys []string
	vals map[string]V
}

func newLRU[V any](n int) *lru[V] { return &lru[V]{cap: n, vals: map[string]V{}} }

func (c *lru[V]) get(k string) (V, bool) {
	v, ok := c.vals[k]
	if ok {
		c.touch(k)
	}
	return v, ok
}

func (c *lru[V]) put(k string, v V) {
	if _, ok := c.vals[k]; !ok && len(c.keys) == c.cap {
		delete(c.vals, c.keys[0])
		c.keys = c.keys[1:]
	}
	c.vals[k] = v
	c.touch(k)
}

func (c *lru[V]) touch(k string) {
	for i, key := range c.keys {
		if key == k {
			c.keys = append(c.keys[:i], c.keys[i+1:]...)
			break
		}
	}
	c.keys = append(c.keys, k)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
