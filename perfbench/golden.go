package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"

	"partita/internal/ilp"
	"partita/internal/selector"
	"partita/internal/service"
)

// answer is what the checker compares: status, area, total gain and
// S-instruction count. Chosen IMP IDs are never compared, because tied
// optima may pick different IMPs.
type answer struct {
	Status string
	Area   float64
	Gain   int64
	S      int
}

// step is one plateau of a design's exact answer as a function of the
// required gain: every rg up to UpTo (and above the previous step's
// UpTo) has this optimum.
type step struct {
	UpTo int64   `json:"upTo"`
	Area float64 `json:"area"`
	Gain int64   `json:"gain"`
	S    int     `json:"s"`
}

// stair is a design's whole exact answer: the optimum is lexicographic
// (area, gain, S) over configurations whose every path gain reaches rg,
// so it stays fixed while rg rises to its smallest path gain, and every
// rg past the last step is infeasible.
type stair struct {
	MaxGain int64  `json:"maxGain"`
	Steps   []step `json:"steps"`
}

// lookup returns the golden answer at rg >= 1.
func (s *stair) lookup(rg int64) answer {
	i := sort.Search(len(s.Steps), func(i int) bool { return s.Steps[i].UpTo >= rg })
	if i == len(s.Steps) {
		return answer{Status: ilp.Infeasible.String()}
	}
	st := s.Steps[i]
	return answer{Status: ilp.Optimal.String(), Area: st.Area, Gain: st.Gain, S: st.S}
}

// goldenSet holds every stair the op lists can reach, keyed by
// stairKey(design, area state).
type goldenSet struct {
	Solver string            `json:"solver"`
	Stairs map[string]*stair `json:"stairs"`
}

func stairKey(designName, state string) string { return designName + "|" + state }

func loadGoldens(path string) (*goldenSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var g goldenSet
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("perfbench: %s: %w", path, err)
	}
	return &g, nil
}

// golden returns the answer for design under area state at rg.
func (g *goldenSet) golden(designName, state string, rg int64) (answer, error) {
	s, ok := g.Stairs[stairKey(designName, state)]
	if !ok {
		return answer{}, fmt.Errorf("perfbench: no golden for %s [%s]", designName, state)
	}
	return s.lookup(rg), nil
}

// areaTol is the area tolerance: two solver drivers sum the same areas
// in different orders (50.1 against 50.099999999999994).
const areaTol = 1e-6

// check compares a returned selection with its golden.
func check(got *service.SelectionResult, want answer) error {
	if got == nil {
		return fmt.Errorf("no selection")
	}
	if got.Status != want.Status {
		return fmt.Errorf("status %s, golden %s", got.Status, want.Status)
	}
	if want.Status != ilp.Optimal.String() {
		return nil
	}
	if got.Degraded != "" {
		return fmt.Errorf("degraded (%s)", got.Degraded)
	}
	if math.Abs(got.Area-want.Area) > areaTol || got.Gain != want.Gain || got.SInstructions != want.S {
		return fmt.Errorf("area/gain/S %g/%d/%d, golden %g/%d/%d",
			got.Area, got.Gain, got.SInstructions, want.Area, want.Gain, want.S)
	}
	return nil
}

// selfTest shows that the checker rejects a wrong area and a flipped
// status, and accepts an area that differs only in rounding.
func selfTest() error {
	want := answer{Status: ilp.Optimal.String(), Area: 50.1, Gain: 4482, S: 3}
	ok := &service.SelectionResult{Status: want.Status, Area: 50.099999999999994, Gain: 4482, SInstructions: 3}
	if err := check(ok, want); err != nil {
		return fmt.Errorf("checker self-test: rounding-only difference rejected: %v", err)
	}
	bad := *ok
	bad.Area += 0.1
	if check(&bad, want) == nil {
		return fmt.Errorf("checker self-test: area +0.1 accepted")
	}
	flipped := *ok
	flipped.Status = ilp.Infeasible.String()
	if check(&flipped, want) == nil {
		return fmt.Errorf("checker self-test: flipped status accepted")
	}
	if check(ok, answer{Status: ilp.Infeasible.String()}) == nil {
		return fmt.Errorf("checker self-test: optimal accepted for an infeasible golden")
	}
	return nil
}

// selection is the wire form of an in-process solve, for check.
func selection(sel *selector.Selection) *service.SelectionResult {
	if sel == nil {
		return nil
	}
	return &service.SelectionResult{Status: sel.Status.String(), Degraded: sel.Degraded, Area: sel.Area, Gain: sel.Gain, SInstructions: sel.SInstructions}
}

// solveStair walks the plateaus of an analysis with the serial exact
// solver. Each plateau is solved twice, at its lower and upper end,
// and both solves must agree; probes more random points per plateau
// against the lookup.
func solveStair(an *selector.Analysis, rng *rand.Rand, probes int) (*stair, error) {
	ctx := context.Background()
	solve := func(rg int64) (*selector.Selection, error) {
		return an.Solve(ctx, selector.Problem{Required: rg})
	}
	s := &stair{MaxGain: an.MaxGain()}
	for rg := int64(1); ; {
		sel, err := solve(rg)
		if err != nil {
			return nil, err
		}
		if sel.Status == ilp.Infeasible {
			break
		}
		if sel.Status != ilp.Optimal || sel.Degraded != "" || len(sel.PathGains) == 0 {
			return nil, fmt.Errorf("rg %d: unexpected %s %q", rg, sel.Status, sel.Degraded)
		}
		upTo := sel.PathGains[0]
		for _, g := range sel.PathGains {
			upTo = min(upTo, g)
		}
		if upTo < rg {
			return nil, fmt.Errorf("rg %d: optimum reaches only %d", rg, upTo)
		}
		s.Steps = append(s.Steps, step{UpTo: upTo, Area: sel.Area, Gain: sel.Gain, S: sel.SInstructions})
		again, err := solve(upTo)
		if err != nil {
			return nil, err
		}
		if err := check(selection(again), s.lookup(upTo)); err != nil {
			return nil, fmt.Errorf("rg %d: second solve disagrees: %v", upTo, err)
		}
		rg = upTo + 1
	}
	for i := 0; i < probes; i++ {
		rg := 1 + rng.Int63n(s.MaxGain+s.MaxGain/20+1)
		sel, err := solve(rg)
		if err != nil {
			return nil, err
		}
		if err := check(selection(sel), s.lookup(rg)); err != nil {
			return nil, fmt.Errorf("probe rg %d: %v", rg, err)
		}
	}
	return s, nil
}

// generateGoldens solves every stair the op lists can reach: the base
// problem of each design, plus every area state of the designs that
// portfolio chains edit.
func generateGoldens(path string, logf func(string, ...any)) error {
	g := &goldenSet{Solver: "serial exact branch and bound (parallelism 0)", Stairs: map[string]*stair{}}
	rng := rand.New(rand.NewSource(1))
	names := append([]string(nil), bundled...)
	for k := 1; k <= inlinePool; k++ {
		names = append(names, inlineName(k))
	}
	for _, name := range names {
		d, err := loadDesign(name)
		if err != nil {
			return err
		}
		b, err := (*tracer)(nil).build(d)
		if err != nil {
			return err
		}
		base := selector.NewAnalysis(b.db)
		states := []map[string]float64{{}}
		if editable(name) {
			states = reachableStates(d)
		}
		for _, st := range states {
			an, err := base.Apply(selector.Delta{IPArea: st})
			if err != nil {
				return err
			}
			s, err := solveStair(an, rng, 3)
			if err != nil {
				return fmt.Errorf("%s [%s]: %w", name, areaState(d, st), err)
			}
			g.Stairs[stairKey(name, areaState(d, st))] = s
			logf("%s [%s]: max gain %d, %d plateaus", name, areaState(d, st), s.MaxGain, len(s.Steps))
		}
	}
	data, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// editable reports whether portfolio chains edit the named design.
func editable(name string) bool {
	for _, b := range bundled {
		if name == b {
			return true
		}
	}
	for k := 1; k <= editPool; k++ {
		if name == inlineName(k) {
			return true
		}
	}
	return false
}
