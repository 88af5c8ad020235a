// Command perfbench is partita's end-to-end benchmark. It drives a real
// partitad process over HTTP with a fixed, seeded op list, checks every
// answer against a stored golden, and prints the end-to-end metrics;
// with -trace 1 it also replays the op list in-process with a span
// around each layer call and prints the per-layer metrics. Run it from
// the repository root through perfbench/run.sh, which builds partitad
// and this program first:
//
//	bash perfbench/run.sh --workload select-stream --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is the result JSON; the line before
// it carries the run's metadata (op-list hash, host). WORKLOADS.md says
// why each workload exists.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// buildDir holds everything a run leaves behind, relative to the
// repository root.
const buildDir = ".bench_build"

// heldOutSeed is kept out of tuning, for checking a later claim on
// inputs its author did not see.
const heldOutSeed = 9173

// setups is how many times a run starts partitad to time set-up.
const setups = 15

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "select-stream, sweep-batch or portfolio-edit")
	seed := flag.Int64("seed", 1, "op-list seed")
	seconds := flag.Int("seconds", 30, "op-list size, in seconds of work at the sized rate")
	trace := flag.Int("trace", 0, "1 adds the traced in-process replay and prints per-layer metrics")
	gen := flag.String("gen-golden", "", "solve the golden staircases into this file and exit")
	flag.Parse()
	logf := func(format string, args ...any) { fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...) }
	if *gen != "" {
		if err := generateGoldens(*gen, logf); err != nil {
			logf("%v", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*workload, *seed, *seconds, *trace == 1, logf); err != nil {
		logf("%v", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds int, traced bool, logf func(string, ...any)) error {
	meta := map[string]any{
		"workload": workload, "seed": seed, "seconds": seconds, "traced": traced,
		"heldOutSeed": heldOutSeed, "host": host(),
	}
	if err := selfTest(); err != nil {
		return err
	}
	meta["checkerSelfTest"] = "ok"
	g, err := loadGoldens(filepath.Join("perfbench", "golden.json"))
	if err != nil {
		return err
	}
	l, err := generate(workload, seed, seconds, g)
	if err != nil {
		return err
	}
	meta["opListHash"] = l.hash()
	meta["ops"] = l.ops()

	bin := filepath.Join(buildDir, "bin", "partitad")
	runDir := filepath.Join(buildDir, "run", fmt.Sprintf("%s-%d-%d", workload, seed, os.Getpid()))
	defer os.RemoveAll(runDir)
	var setupS []float64
	var d *daemon
	for i := 0; i < setups; i++ {
		dd, took, err := startDaemon(bin, filepath.Join(runDir, fmt.Sprint("d", i)))
		if err != nil {
			return err
		}
		setupS = append(setupS, took.Seconds())
		if i < setups-1 {
			dd.stop()
		} else {
			d = dd
		}
	}
	before, err := d.scrape()
	if err != nil {
		d.stop()
		return err
	}
	recs, wall := drive(d.base, l, g)
	after, err := d.scrape()
	rss, rerr := d.peakRSSMB()
	d.stop()
	if err != nil {
		return err
	}
	if rerr != nil {
		return rerr
	}
	dm := delta(before, after)

	res := result{Correct: true, Attempted: len(recs), Metrics: map[string]metric{}}
	var lat, first []float64
	for _, r := range recs {
		if r.Err != nil {
			if res.Failed < 5 {
				logf("failed: %v", r.Err)
			}
			res.Failed++
			continue
		}
		lat = append(lat, ms(r.Latency))
		first = append(first, ms(r.First))
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	e2e := map[string]metric{
		"setup_s":       {median(setupS), "s"},
		"ops_per_s":     {float64(len(recs)-res.Failed) / wall.Seconds(), "1/s"},
		"op_ms_p50":     {percentile(lat, 50), "ms"},
		"op_ms_p90":     {percentile(lat, 90), "ms"},
		"first_ms_p50":  {percentile(first, 50), "ms"},
		"server_rss_mb": {rss, "MB"},
	}
	meta["samplesBeyondP90"] = len(lat) - int(0.9*float64(len(lat)))
	meta["setupRunsS"] = setupS
	detail := map[string]any{"meta": meta, "endToEnd": e2e, "opMs": opTimes(l, recs)}

	if !traced {
		res.Metrics = e2e
	} else {
		layers, info, err := perLayer(l, g, recs, dm, logf)
		if err != nil {
			return err
		}
		if info.Failures > 0 {
			res.Correct = false
		}
		res.Metrics = layers
		detail["perLayer"] = layers
		detail["replay"] = info
	}
	detail["result"] = res
	if err := writeDetail(workload, seed, traced, detail); err != nil {
		return err
	}
	return printResult(meta, res)
}

// opTimes lists each op's design, latency and end (ms after the first
// op began), for the run's record: it shows which stretch of a run a
// slow or fast figure came from.
func opTimes(l *opList, recs []record) [][3]any {
	var t0 time.Time
	for _, r := range recs {
		if s := r.End.Add(-r.Latency); !r.End.IsZero() && (t0.IsZero() || s.Before(t0)) {
			t0 = s
		}
	}
	out := make([][3]any, 0, len(recs))
	for i, r := range recs {
		end := 0.0
		if !r.End.IsZero() {
			end = ms(r.End.Sub(t0))
		}
		out = append(out, [3]any{l.design(i), ms(r.Latency), end})
	}
	return out
}

// replayInfo is what the traced replays found, kept in the run's record.
type replayInfo struct {
	Counts          counts             `json:"counts"`
	CountMismatches []string           `json:"countMismatches"`
	Failures        int                `json:"failures"`
	SelfMs          map[string]float64 `json:"selfMs"`
}

// perLayer computes the per-layer metrics: service and journal numbers
// from the untraced run's job views and /metrics deltas, every other
// layer from two traced in-process replays of the same op list.
func perLayer(l *opList, g *goldenSet, recs []record, dm map[string]float64, logf func(string, ...any)) (map[string]metric, *replayInfo, error) {
	ops := float64(len(recs))
	var queue, runMs, httpMs []float64
	var runTotal float64
	for _, r := range recs {
		if r.Started {
			queue = append(queue, r.QueueMs)
			runMs = append(runMs, r.RunMs)
			runTotal += r.RunMs
		}
		if r.IsJob && r.Err == nil {
			httpMs = append(httpMs, ms(r.Latency)-r.ServerMs)
		}
	}
	if len(l.Batches) > 0 {
		queue = nil // batch views carry no start time
	}
	cache := func(name string) float64 {
		h := dm[`partitad_cache_hits_total{cache="`+name+`"}`]
		return ratio(h, h+dm[`partitad_cache_misses_total{cache="`+name+`"}`])
	}
	m := map[string]metric{
		"service.queue_wait_ms_p50":      {percentile(queue, 50), "ms"},
		"service.run_ms_p50":             {percentile(runMs, 50), "ms"},
		"service.http_ms_p50":            {percentile(httpMs, 50), "ms"},
		"service.result_cache_hit_ratio": {cache("result"), "ratio"},
		"service.design_cache_hit_ratio": {cache("design"), "ratio"},
		"service.solves_per_op":          {dm["partitad_solves_started_total"] / ops, "count/op"},
		"journal.fsyncs_per_op":          {dm["partitad_journal_fsync_seconds_count"] / ops, "count/op"},
		"journal.fsync_ms_mean":          {1000 * ratio(dm["partitad_journal_fsync_seconds_sum"], dm["partitad_journal_fsync_seconds_count"]), "ms"},
	}
	for _, disp := range []string{"solved", "reused", "cached", "duplicate"} {
		m["service.batch_points."+disp] = metric{dm[`partitad_batch_points_total{disposition="`+disp+`"}`], "count"}
	}
	for _, eng := range []string{"capacity", "greedy", "lpround", "exact", "seed"} {
		m["portfolio.wins."+eng] = metric{dm[`partitad_portfolio_wins_total{engine="`+eng+`"}`], "count"}
	}

	// Two replays of the op list, one per core, at the same time: their
	// serial-path counts must agree.
	reps := []*replay{newReplay(newTracer(), g), newReplay(newTracer(), g)}
	errs := make([]error, len(reps))
	var wg sync.WaitGroup
	start := time.Now()
	for i, rp := range reps {
		wg.Add(1)
		go func(i int, rp *replay) {
			defer wg.Done()
			errs[i] = rp.run(l)
		}(i, rp)
	}
	wg.Wait()
	logf("replays: %s", time.Since(start).Round(time.Millisecond))
	if err := errors.Join(errs...); err != nil {
		return nil, nil, err
	}
	rp := reps[0]
	for _, err := range rp.failures[:min(len(rp.failures), 5)] {
		logf("%v", err)
	}
	units := map[string]string{"imps_per_design": "count", "solved_points": "count", "reuse_ratio": "ratio",
		"nodes_per_solve": "count", "cold_lps_per_solve": "count", "warm_lps_per_solve": "count",
		"pivots_per_node": "count", "confirmed_ratio": "ratio", "seeded_ratio": "ratio"}
	for name, v := range rp.layerMetrics() {
		unit := "ms"
		if u, ok := units[name[strings.IndexByte(name, '.')+1:]]; ok {
			unit = u
		}
		m[name] = metric{v, unit}
	}
	m["trace.run_coverage"] = metric{ratio(ms(rp.layerTime()), runTotal), "ratio"}
	// Serial-path counts should repeat exactly between the replays; the
	// ops where they do not are reported by design and counted, so no
	// claim is rested on a count that does not repeat.
	var differ []string
	for _, op := range rp.mismatches(reps[1]) {
		differ = append(differ, fmt.Sprintf("op %d (%s): %+v vs %+v", op, l.design(op), rp.opCounts[op], reps[1].opCounts[op]))
	}
	for _, s := range differ[:min(len(differ), 5)] {
		logf("serial-path counts differ between replays: %s", s)
	}
	m["trace.count_mismatches"] = metric{float64(len(differ)), "count"}
	self := map[string]float64{}
	for name, d := range rp.t.selfTimes() {
		self[name] = ms(d)
	}
	if err := rp.t.write(filepath.Join(buildDir, "trace"), fmt.Sprintf("%s-%d.json", l.Workload, l.Seed)); err != nil {
		return nil, nil, err
	}
	info := &replayInfo{Counts: rp.counts, CountMismatches: differ, Failures: len(rp.failures) + len(reps[1].failures), SelfMs: self}
	return m, info, nil
}

// printResult prints the metadata line, then the result as the last
// line of standard output.
func printResult(meta map[string]any, res result) error {
	for _, v := range []any{meta, res} {
		data, err := json.Marshal(v)
		if err != nil {
			return err
		}
		fmt.Println(string(data))
	}
	return nil
}

// writeDetail keeps the run's full record under buildDir/results.
func writeDetail(workload string, seed int64, traced bool, detail map[string]any) error {
	dir := filepath.Join(buildDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(detail, "", " ")
	if err != nil {
		return err
	}
	t := 0
	if traced {
		t = 1
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-%d-t%d.json", workload, seed, t)), data, 0o644)
}

// host describes the machine and the code measured.
func host() map[string]any {
	load := ""
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		load = strings.Join(strings.Fields(string(data))[:3], " ")
	}
	return map[string]any{
		"cores": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"commit": commit(), "loadavg": load,
	}
}

// commit names the measured code: the git commit when the tree is a
// repository, else a digest of its Go sources.
func commit() string {
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	var files []string
	_ = filepath.WalkDir(".", func(p string, e fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if e.IsDir() && (p == buildDir || strings.HasPrefix(e.Name(), ".") && p != ".") {
			return filepath.SkipDir
		}
		if strings.HasSuffix(p, ".go") || filepath.Base(p) == "go.mod" {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(data))
		h.Write(data)
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:16]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// percentile returns the p-th percentile (0..100) of xs by the
// nearest-rank method; 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[min(max(k, 0), len(s)-1)]
}
