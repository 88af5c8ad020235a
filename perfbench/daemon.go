package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"partita/internal/service"
)

// daemon is one running partitad process.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{}
}

// startDaemon execs partitad with a fresh journal under dir, waits for
// /readyz, and runs one analyze job per bundled design; it returns the
// daemon and the time all of that took.
func startDaemon(bin, dir string) (*daemon, time.Duration, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, 0, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(filepath.Join(dir, "partitad.log"))
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	start := time.Now()
	// The drain budget is short because every stop finds partitad idle;
	// partitad holds its listener open for a quarter of the budget (half a
	// second at the default) before it shuts down, and a run stops it
	// once per set-up.
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0",
		"-journal", filepath.Join(dir, "journal.wal"), "-journal-sync", "always", "-grace", "200ms")
	cmd.Stderr = logf
	// partitad must not outlive the benchmark, however it ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("perfbench: start partitad: %w", err)
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "partitad listening on "); ok {
				addr <- a
			}
		}
		_ = cmd.Wait()
		close(d.exited)
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.exited:
		return nil, 0, fmt.Errorf("perfbench: partitad exited before listening (see %s)", logf.Name())
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, 0, fmt.Errorf("perfbench: partitad did not listen within 30s")
	}
	if err := d.awaitReady(); err != nil {
		d.stop()
		return nil, 0, err
	}
	c := newClient(d.base)
	for _, w := range bundled {
		v, err := c.run(service.JobSpec{Kind: service.KindAnalyze, Workload: w})
		if err == nil && v.Status != service.StatusDone {
			err = fmt.Errorf("status %s: %s", v.Status, v.Error)
		}
		if err != nil {
			d.stop()
			return nil, 0, fmt.Errorf("perfbench: warm-up analyze %s: %w", w, err)
		}
	}
	return d, time.Since(start), nil
}

func (d *daemon) awaitReady() error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(d.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("perfbench: partitad not ready within 30s")
}

// stop drains partitad with SIGTERM and waits for it to exit, killing
// it if the drain overruns.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// peakRSSMB reads partitad's peak resident set (VmHWM).
func (d *daemon) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("perfbench: no VmHWM in /proc status")
}

// scrape reads /metrics into series → value, keyed by the series name
// with its labels as printed ("partitad_cache_hits_total{cache=\"result\"}").
func (d *daemon) scrape() (map[string]float64, error) {
	resp, err := http.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseMetrics(data)
}

// parseMetrics parses Prometheus text exposition: comment lines are
// skipped, every other line is "series value".
func parseMetrics(data []byte) (map[string]float64, error) {
	out := map[string]float64{}
	for _, line := range bytes.Split(data, []byte("\n")) {
		s := strings.TrimSpace(string(line))
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		i := strings.LastIndexByte(s, ' ')
		if i < 0 {
			return nil, fmt.Errorf("perfbench: bad metrics line %q", s)
		}
		v, err := strconv.ParseFloat(s[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("perfbench: bad metrics line %q: %w", s, err)
		}
		out[s[:i]] = v
	}
	return out, nil
}

// delta returns after − before for every series of after.
func delta(before, after map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// client is one load-generating connection to partitad.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Timeout: 60 * time.Second}}
}

// do sends one JSON request and decodes a 200/202 JSON response.
func (c *client) do(method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

// await long-polls a job until it is terminal.
func (c *client) await(v service.JobView) (service.JobView, error) {
	for v.Status != service.StatusDone && v.Status != service.StatusFailed {
		if err := c.do("GET", "/v1/jobs/"+v.ID+"?wait=30s", nil, &v); err != nil {
			return v, err
		}
	}
	return v, nil
}

// run submits a job and waits for its terminal view.
func (c *client) run(spec service.JobSpec) (service.JobView, error) {
	var v service.JobView
	if err := c.do("POST", "/v1/jobs", spec, &v); err != nil {
		return v, err
	}
	return c.await(v)
}

// edit derives a portfolio job from a finished one and waits for it.
func (c *client) edit(parent string, req service.EditRequest) (service.JobView, error) {
	var v service.JobView
	if err := c.do("POST", "/v1/jobs/"+parent+"/edits", req, &v); err != nil {
		return v, err
	}
	return c.await(v)
}

// batchStream is what a client sees of one batch.
type batchStream struct {
	First   time.Duration // submit to first point event
	Points  map[int]*service.BatchPointResult
	Summary *service.BatchSummary
}

// batch submits a batch and follows its SSE stream to the summary.
func (c *client) batch(spec service.BatchSpec, start time.Time) (*batchStream, error) {
	var v service.BatchView
	if err := c.do("POST", "/v1/batches", spec, &v); err != nil {
		return nil, err
	}
	req, err := http.NewRequest("GET", c.base+"/v1/batches/"+v.ID+"/events", nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("batch events: %s", resp.Status)
	}
	bs := &batchStream{Points: map[int]*service.BatchPointResult{}}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	var typ string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			typ = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if typ == service.EventEnd {
				return nil, fmt.Errorf("batch stream ended early: %s", strings.TrimPrefix(line, "data: "))
			}
			if typ != service.EventPoint && typ != service.EventSummary {
				continue
			}
			var ev service.BatchEvent
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				return nil, err
			}
			if typ == service.EventSummary {
				bs.Summary = ev.Summary
				return bs, nil
			}
			if len(bs.Points) == 0 {
				bs.First = time.Since(start)
			}
			bs.Points[ev.Point] = ev.Result
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("batch stream closed without a summary")
}
