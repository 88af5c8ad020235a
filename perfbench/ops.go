package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
)

// Op-list sizes per second of --seconds. A run does a fixed amount of
// work, set by the seconds argument alone, so every run with the same
// arguments does the same work however fast the program is; the rates
// are what this program sustained on a 2-core x86-64 host.
const (
	selectsPerSecond  = 110
	batchesPerSecond  = 5
	chainOpsPerSecond = 100
)

// maxFrac is the top of the required-gain range as a fraction of the
// design's maximum reachable gain; above 1 the job is infeasible.
const maxFrac = 1.05

// selectOp is one exact select job.
type selectOp struct {
	Design string `json:"design"`
	RG     int64  `json:"rg"`
	// Repeat is the index of the earlier op this one repeats, or -1.
	Repeat int `json:"repeat"`
}

// batchOp is one 64-point sweep batch on one design.
type batchOp struct {
	Design string  `json:"design"`
	Gains  []int64 `json:"gains"`
}

// edit is one interactive edit: a new required gain, or a new area for
// one IP.
type edit struct {
	RG   int64   `json:"rg,omitempty"`
	IP   string  `json:"ip,omitempty"`
	Area float64 `json:"area,omitempty"`
}

// chain is one portfolio select followed by its edits.
type chain struct {
	Design string `json:"design"`
	RG     int64  `json:"rg"`
	Edits  []edit `json:"edits"`
}

// opList is the whole, fixed input of one workload run.
type opList struct {
	Workload string     `json:"workload"`
	Seed     int64      `json:"seed"`
	Selects  []selectOp `json:"selects,omitempty"`
	Batches  []batchOp  `json:"batches,omitempty"`
	Chains   []chain    `json:"chains,omitempty"`
}

// ops counts the ops a run performs; a chain is one select plus one op
// per edit.
func (l *opList) ops() int {
	n := len(l.Selects) + len(l.Batches)
	for _, c := range l.Chains {
		n += 1 + len(c.Edits)
	}
	return n
}

// design names the design op i of the list runs on.
func (l *opList) design(i int) string {
	switch {
	case i < len(l.Selects):
		return l.Selects[i].Design
	case i < len(l.Batches):
		return l.Batches[i].Design
	}
	for _, c := range l.Chains {
		if i < 1+len(c.Edits) {
			return c.Design
		}
		i -= 1 + len(c.Edits)
	}
	return "?"
}

// hash identifies the op list, so two runs can be shown to have done
// the same work.
func (l *opList) hash() string {
	data, _ := json.Marshal(l) // plain structs: cannot fail
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}

const (
	pointsPerBatch = 64
	editsPerChain  = 4
	// rgEdits of a chain's edits move the required gain; the others
	// change an IP's area.
	rgEdits = editsPerChain / 2
	// repeatMin and repeatMax bound how far back a repeated select
	// reaches: far enough that the original has finished, near enough
	// that its result is still in partitad's 256-entry result cache.
	repeatMin = 64
	repeatMax = 192
)

// generate builds the op list of a workload from its seed.
func generate(workload string, seed int64, seconds int, g *goldenSet) (*opList, error) {
	rng := rand.New(rand.NewSource(seed))
	l := &opList{Workload: workload, Seed: seed}
	inline, editable, swept := newDeck(rng, inlinePool), newDeck(rng, editPool), newDeck(rng, sweepPool)
	maxGain := func(name string) int64 { return g.Stairs[stairKey(name, "")].MaxGain }
	switch workload {
	case "select-stream":
		// Blocks of 40: 5 repeats, and 35 new ops of which 60% are on
		// bundled designs and 40% inline. Each design class spreads its
		// required gains over (0, maxFrac] in equal strata.
		n := selectsPerSecond * seconds
		for len(l.Selects) < n {
			slots := []string{}
			for i := 0; i < 5; i++ {
				slots = append(slots, "repeat")
			}
			for _, b := range bundled {
				for i := 0; i < 7; i++ {
					slots = append(slots, b)
				}
			}
			for i := 0; i < 14; i++ {
				slots = append(slots, "inline")
			}
			fracs := map[string][]float64{}
			for _, class := range []string{"gsm", "jpeg", "jpegdec", "inline"} {
				fracs[class] = strata(rng, count(slots, class))
			}
			rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
			for _, class := range slots {
				i := len(l.Selects)
				if class == "repeat" && i >= repeatMin {
					j := i - repeatMin - rng.Intn(min(i-repeatMin, repeatMax-repeatMin)+1)
					if l.Selects[j].Repeat >= 0 {
						j = l.Selects[j].Repeat
					}
					l.Selects = append(l.Selects, selectOp{Design: l.Selects[j].Design, RG: l.Selects[j].RG, Repeat: j})
					continue
				}
				f, name := 0.0, class
				switch class {
				case "repeat": // too early to repeat: a fresh inline op
					f, name = rng.Float64()*maxFrac, inline.next()
				case "inline":
					f, fracs[class] = fracs[class][0], fracs[class][1:]
					name = inline.next()
				default:
					f, fracs[class] = fracs[class][0], fracs[class][1:]
				}
				l.Selects = append(l.Selects, selectOp{Design: name, RG: frac(maxGain(name), f), Repeat: -1})
			}
		}
		l.Selects = l.Selects[:n]
	case "sweep-batch":
		// Blocks of 4: one GSM, one JPEG encoder, one JPEG decoder and
		// one inline batch. A GSM sweep costs about 15 times a decoder
		// sweep and an inline sweep anything from 1 ms to a GSM's, so
		// this mix puts the p50 rank in the middle of the decoder
		// batches and the p90 rank in the middle of the GSM ones, away
		// from the gaps where noise would move them from one design to
		// another. The count is rounded to the nearest whole deal of the
		// sweep pool, so every run sweeps each pool design equally often.
		deal := 4 * sweepPool
		n := max(1, (batchesPerSecond*seconds+deal/2)/deal) * deal
		// Each design class spreads its batches' offsets over (0, 1] in
		// equal strata, so a run's cost hardly depends on its seed.
		offs := map[string][]float64{}
		for _, c := range []string{"gsm", "jpeg", "jpegdec", "inline"} {
			offs[c] = strata(rng, n/4)
		}
		for len(l.Batches) < n {
			names := []string{"gsm", "jpeg", "jpegdec", swept.next()}
			rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
			for _, name := range names {
				c := class(name)
				off := offs[c][0] / maxFrac
				offs[c] = offs[c][1:]
				gains := make([]int64, pointsPerBatch)
				for i := range gains {
					gains[i] = frac(maxGain(name), (float64(i)+off)/pointsPerBatch*maxFrac)
				}
				l.Batches = append(l.Batches, batchOp{Design: name, Gains: gains})
			}
		}
	case "portfolio-edit":
		// Blocks of 4 chains: GSM, a JPEG design, two inline designs.
		// Each chain draws 1+rgEdits required gains; every design class
		// spreads its draws over (0, maxFrac] in equal strata, so a
		// run's cost hardly depends on its seed.
		n := max(chainOpsPerSecond*seconds/(1+editsPerChain), 2)
		var names []string
		for len(names) < n {
			block := []string{"gsm", bundled[1+len(names)/4%2], editable.next(), editable.next()}
			rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
			names = append(names, block...)
		}
		names = names[:n]
		fracs := map[string][]float64{}
		for _, c := range []string{"gsm", "jpeg", "jpegdec", "inline"} {
			k := 0
			for _, name := range names {
				if class(name) == c {
					k++
				}
			}
			fracs[c] = strata(rng, k*(1+rgEdits))
		}
		for _, name := range names {
			c := class(name)
			ch, err := newChain(rng, name, maxGain(name), fracs[c][:1+rgEdits])
			if err != nil {
				return nil, err
			}
			fracs[c] = fracs[c][1+rgEdits:]
			l.Chains = append(l.Chains, ch)
		}
	default:
		return nil, fmt.Errorf("perfbench: unknown workload %q (have select-stream, sweep-batch, portfolio-edit)", workload)
	}
	return l, nil
}

// newChain draws a portfolio chain on required-gain fractions fracs:
// the first is the select's, and each of its rgEdits required-gain
// edits takes one of the rest; the other edits give an editable IP
// another of its area choices.
func newChain(rng *rand.Rand, name string, maxGain int64, fracs []float64) (chain, error) {
	d, err := loadDesign(name)
	if err != nil {
		return chain{}, err
	}
	ips := d.editableIPs()
	cur := map[string]float64{}
	for _, b := range ips {
		cur[b.ID] = b.Area
	}
	c := chain{Design: name, RG: frac(maxGain, fracs[0])}
	fracs = fracs[1:]
	kinds := make([]bool, editsPerChain) // true: a required-gain edit
	for i := 0; i < rgEdits; i++ {
		kinds[i] = true
	}
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	for _, rgEdit := range kinds {
		if rgEdit || len(ips) == 0 {
			f := rng.Float64() * maxFrac
			if rgEdit {
				f, fracs = fracs[0], fracs[1:]
			}
			c.Edits = append(c.Edits, edit{RG: frac(maxGain, f)})
			continue
		}
		b := ips[rng.Intn(len(ips))]
		var others []float64
		for _, a := range areaChoices(b.Area) {
			if a != cur[b.ID] {
				others = append(others, a)
			}
		}
		cur[b.ID] = others[rng.Intn(len(others))]
		c.Edits = append(c.Edits, edit{IP: b.ID, Area: cur[b.ID]})
	}
	return c, nil
}

// class is the design class a name belongs to: a bundled design's own
// name, or "inline".
func class(name string) string {
	for _, b := range bundled {
		if name == b {
			return name
		}
	}
	return "inline"
}

// deck deals the inline designs r1..rN in seeded permutations, so every
// design of the pool is used equally often and the work in a run does
// not depend on which designs a seed happens to draw.
type deck struct {
	rng   *rand.Rand
	n     int
	cards []int
}

func newDeck(rng *rand.Rand, n int) *deck { return &deck{rng: rng, n: n} }

func (d *deck) next() string {
	if len(d.cards) == 0 {
		d.cards = d.rng.Perm(d.n)
	}
	k := d.cards[0]
	d.cards = d.cards[1:]
	return inlineName(1 + k)
}

// strata returns n fractions of (0, maxFrac], one in each of n equal
// strata, in random order.
func strata(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = (float64(i) + rng.Float64()) / float64(n) * maxFrac
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func count(xs []string, x string) int {
	n := 0
	for _, v := range xs {
		if v == x {
			n++
		}
	}
	return n
}
