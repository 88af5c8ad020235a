package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"partita/internal/apps"
	"partita/internal/ip"
	"partita/internal/service"
)

// bundled are the applications partitad ships; jobs name them by
// workload instead of carrying source.
var bundled = []string{"gsm", "jpeg", "jpegdec"}

// inlinePool is the number of seeded apps.RandomWorkload designs the op
// lists draw inline programs from (design "r<k>", k = 1..inlinePool).
// It is larger than partitad's 32-entry design cache, so a run keeps
// paying for the front end on designs it has not seen recently.
const inlinePool = 96

// sweepPool is the prefix of the inline pool that sweep batches run on:
// a sweep of the larger designs costs ten times a sweep of the smaller,
// so every run sweeps the same designs, in its own order and at its own
// required-gain offsets.
const sweepPool = 32

// editPool is the prefix of the inline pool that portfolio chains edit;
// every (design, area state) pair they can reach has a golden staircase.
const editPool = 24

// design is one program a job can name.
type design struct {
	Name     string
	Workload string // bundled name, or "" for an inline program
	Source   string
	Root     string
	Catalog  []*ip.IP
	// DataCount is the bundled workload's per-function data volume
	// (nil for inline programs, which partitad cannot be sent).
	DataCount func(fn string) (int, int)
}

// loadDesign builds a design of the pool by name.
func loadDesign(name string) (*design, error) {
	switch name {
	case "gsm", "jpeg", "jpegdec":
		build := map[string]func() (apps.Workload, error){
			"gsm": apps.GSMEncoderWorkload, "jpeg": apps.JPEGEncoderWorkload, "jpegdec": apps.JPEGDecoderWorkload,
		}[name]
		w, err := build()
		if err != nil {
			return nil, err
		}
		return &design{Name: name, Workload: name, Source: w.Source, Root: w.Root, Catalog: w.Catalog.All(), DataCount: w.DataCount}, nil
	}
	k, err := strconv.ParseInt(strings.TrimPrefix(name, "r"), 10, 64)
	if err != nil || !strings.HasPrefix(name, "r") {
		return nil, fmt.Errorf("perfbench: unknown design %q", name)
	}
	w, err := apps.RandomWorkload(k)
	if err != nil {
		return nil, fmt.Errorf("perfbench: design %s: %w", name, err)
	}
	return &design{Name: name, Source: w.Source, Root: w.Root, Catalog: w.Catalog.All()}, nil
}

// inlineName names design k of the inline pool.
func inlineName(k int) string { return "r" + strconv.Itoa(k) }

// spec is the select job that asks partitad about this design.
func (d *design) spec(rg int64) service.JobSpec {
	s := service.JobSpec{Kind: service.KindSelect, RequiredGain: rg}
	if d.Workload != "" {
		s.Workload = d.Workload
	} else {
		s.Source, s.Root, s.Catalog = d.Source, d.Root, d.Catalog
	}
	return s
}

// editableIPs are the two IPs of a design whose areas portfolio chains
// edit: the two largest, ties by ID, so an edit moves the optimum.
func (d *design) editableIPs() []*ip.IP {
	ips := append([]*ip.IP(nil), d.Catalog...)
	sort.SliceStable(ips, func(i, j int) bool {
		if ips[i].Area != ips[j].Area {
			return ips[i].Area > ips[j].Area
		}
		return ips[i].ID < ips[j].ID
	})
	if len(ips) > 2 {
		ips = ips[:2]
	}
	return ips
}

// areaChoices are the areas an edit may give an editable IP: its own,
// half of it, and double it.
func areaChoices(base float64) []float64 { return []float64{base, base / 2, base * 2} }

// areaState canonically names an IP-area edit state: "" for the base
// problem, else sorted "ID=area" pairs of the IPs that differ from base.
func areaState(d *design, areas map[string]float64) string {
	var parts []string
	for _, b := range d.Catalog {
		if a, ok := areas[b.ID]; ok && a != b.Area {
			parts = append(parts, b.ID+"="+strconv.FormatFloat(a, 'g', -1, 64))
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// reachableStates lists every area state a portfolio chain on d can
// reach: each editable IP at each of its area choices.
func reachableStates(d *design) []map[string]float64 {
	states := []map[string]float64{{}}
	for _, b := range d.editableIPs() {
		var next []map[string]float64
		for _, st := range states {
			for _, a := range areaChoices(b.Area) {
				m := map[string]float64{}
				for k, v := range st {
					m[k] = v
				}
				if a != b.Area {
					m[b.ID] = a
				}
				next = append(next, m)
			}
		}
		states = next
	}
	return states
}

// frac maps a fraction of the maximum reachable gain to a required
// gain of at least 1.
func frac(maxGain int64, f float64) int64 {
	return max(1, int64(math.Round(f*float64(maxGain))))
}
