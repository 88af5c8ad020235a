package main

import "testing"

func TestCheckerSelfTest(t *testing.T) {
	if err := selfTest(); err != nil {
		t.Fatal(err)
	}
}

func TestStairLookup(t *testing.T) {
	s := &stair{MaxGain: 100, Steps: []step{{UpTo: 10, Area: 1, Gain: 12, S: 1}, {UpTo: 100, Area: 5.5, Gain: 100, S: 2}}}
	for _, tc := range []struct {
		rg   int64
		want answer
	}{
		{1, answer{"optimal", 1, 12, 1}},
		{10, answer{"optimal", 1, 12, 1}},
		{11, answer{"optimal", 5.5, 100, 2}},
		{100, answer{"optimal", 5.5, 100, 2}},
		{101, answer{Status: "infeasible"}},
	} {
		if got := s.lookup(tc.rg); got != tc.want {
			t.Errorf("lookup(%d) = %+v, want %+v", tc.rg, got, tc.want)
		}
	}
}

func TestGoldensCoverOpLists(t *testing.T) {
	g, err := loadGoldens("golden.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"select-stream", "sweep-batch", "portfolio-edit"} {
		l, err := generate(w, 1, 2, g)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range l.Chains {
			d, err := loadDesign(c.Design)
			if err != nil {
				t.Fatal(err)
			}
			areas := map[string]float64{}
			for _, e := range c.Edits {
				if e.IP != "" {
					areas[e.IP] = e.Area
				}
				if _, err := g.golden(c.Design, areaState(d, areas), c.RG); err != nil {
					t.Error(err)
				}
			}
		}
		if l.ops() == 0 {
			t.Errorf("%s: empty op list", w)
		}
	}
}

func TestParseMetrics(t *testing.T) {
	m, err := parseMetrics([]byte("# HELP x y\npartitad_cache_hits_total{cache=\"result\"} 3\npartitad_solve_seconds_sum 0.25\n"))
	if err != nil {
		t.Fatal(err)
	}
	if m[`partitad_cache_hits_total{cache="result"}`] != 3 || m["partitad_solve_seconds_sum"] != 0.25 {
		t.Fatalf("parsed %v", m)
	}
	d := delta(map[string]float64{"a": 1}, map[string]float64{"a": 4, "b": 2})
	if d["a"] != 3 || d["b"] != 2 {
		t.Fatalf("delta %v", d)
	}
}

// TestConcurrentReplays runs two replays of one op list at once, as a
// traced run does, and checks their answers against the goldens.
func TestConcurrentReplays(t *testing.T) {
	g, err := loadGoldens("golden.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"select-stream", "portfolio-edit"} {
		l, err := generate(w, 3, 1, g)
		if err != nil {
			t.Fatal(err)
		}
		reps := []*replay{newReplay(newTracer(), g), newReplay(newTracer(), g)}
		errs := make(chan error, len(reps))
		for _, rp := range reps {
			go func(rp *replay) { errs <- rp.run(l) }(rp)
		}
		for range reps {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
		for _, rp := range reps {
			for _, err := range rp.failures {
				t.Errorf("%s: %v", w, err)
			}
		}
	}
}
