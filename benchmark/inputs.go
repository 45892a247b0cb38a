package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"
)

// Seed -> inputs.  Everything the program is handed is generated here,
// as plain data, from (seed, workload): the same pair always yields the
// same bytes.  The layers only ever see these values.
//
// What the seed may move is chosen per workload by how chaotic the
// cycle is.  Marking snaps to a histogram threshold and growth
// compounds over epochs, so shifting the cylinder by 0.2 % of the box
// moves a six-epoch run's final mesh by +-8 % and its wall-clock with
// it.  A workload that times ONE world per repetition (adapt-cycle,
// implicit-solve) therefore gets seeds that leave the mesh history
// alone — the initial pulse (every solution value, and under PCG the
// iteration counts) and a <= 1 % detune of the simulated wire latency
// (every simulated clock) — while workloads that time MANY worlds per
// repetition (scenario-sweep, serve-*) take geometric seeds and let the
// repetition average them.

// rng is SplitMix64: tiny, seedable, and stable across Go releases
// (math/rand's stream is not part of its compatibility promise).
type rng struct{ s uint64 }

func newRNG(seed int64, stream string) *rng {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return &rng{s: uint64(seed)*0x9e3779b97f4a7c15 ^ h.Sum64()}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// unit returns a float in [0, 1).
func (r *rng) unit() float64 { return float64(r.next()>>11) / float64(1<<53) }

// cycleInputs are the generated inputs of the two single-world
// workloads.
type cycleInputs struct {
	P, Epochs, NAdapt  int
	Implicit           bool
	Frac, CoarsenBelow float64
	// PulseX/PulseY place the initial Gaussian pulse, as fractions of
	// the box extents.
	PulseX, PulseY float64
	// LatencyScale detunes the simulated machine's wire latency.
	LatencyScale float64
}

// sizes scales a workload down for the self-tests.
type sizes struct {
	Epochs   int // world workloads: epochs per world (0 = full size)
	Specs    int // scenario-sweep: leading specs swept (0 = all nine)
	Requests int // serve workloads: distinct requests per pass (0 = full size)
}

func genCycleInputs(workload string, seed int64, sz sizes) cycleInputs {
	r := newRNG(seed, workload)
	in := cycleInputs{
		Frac: 0.12, CoarsenBelow: 0.05,
		PulseX:       0.35 + 0.30*r.unit(),
		PulseY:       0.40 + 0.20*r.unit(),
		LatencyScale: 0.99 + 0.02*r.unit(),
	}
	if workload == wlImplicitSolve {
		in.P, in.Epochs, in.NAdapt, in.Implicit = 16, 3, 6, true
	} else {
		in.P, in.Epochs, in.NAdapt = 8, 6, 10
	}
	if sz.Epochs > 0 {
		in.Epochs = sz.Epochs
	}
	return in
}

// The nine corpus specs of ci/scenarios at the commit that defined the
// benchmark, copied so the benchmark's inputs cannot move under it.
//
//go:embed scenarios/*.json
var scenarioTemplates embed.FS

// genScenarioSpecs returns the seed-jittered spec documents, in name
// order: the front scenarios' x0/x1 shifted together, the multijob
// scenarios' phase shifted, and every spec one cycle shorter than its
// template (a full-length sweep is 14.5 s on two cores; the measuring
// window is 10).  Burst and straggler scenarios keep their geometry:
// they hold the sweep's heaviest worlds, and a shifted front there moves
// the sweep's wall-clock by more than any bound.  The documents go back
// through the strict loader before use.
func genScenarioSpecs(seed int64, sz sizes) ([][]byte, error) {
	entries, err := scenarioTemplates.ReadDir("scenarios")
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	if sz.Specs > 0 {
		names = names[:sz.Specs]
	}
	r := newRNG(seed, wlScenarioSweep)
	var docs [][]byte
	for _, name := range names {
		raw, err := scenarioTemplates.ReadFile("scenarios/" + name)
		if err != nil {
			return nil, err
		}
		var spec map[string]any
		if err := json.Unmarshal(raw, &spec); err != nil {
			return nil, fmt.Errorf("template %s: %w", name, err)
		}
		shift := 0.08*r.unit() - 0.04
		phase := r.unit()
		if f, ok := spec["front"].(map[string]any); ok && spec["kind"] == "front" {
			x0, x1 := f["x0"].(float64), f["x1"].(float64)
			if x0+shift < 0 {
				shift = -x0
			}
			if x1+shift > 1 {
				shift = 1 - x1
			}
			f["x0"], f["x1"] = round6(x0+shift), round6(x1+shift)
		}
		if mj, ok := spec["multijob"].(map[string]any); ok && spec["kind"] == "multijob" {
			p, _ := mj["phase"].(float64)
			p = math.Mod(p+phase, 1)
			if p > 0.9999994 { // would print as 1, which the loader refuses
				p = 0
			}
			mj["phase"] = round6(p)
		}
		cycles := int(spec["cycles"].(float64)) - 1
		if sz.Epochs > 0 && sz.Epochs < cycles {
			cycles = sz.Epochs
		}
		spec["cycles"] = cycles
		if b, ok := spec["burst"].(map[string]any); ok && int(b["arrival"].(float64)) >= cycles {
			b["arrival"] = cycles - 1
		}
		if st, ok := spec["straggler"].(map[string]any); ok {
			if to, ok := st["to"].(float64); ok && int(to) > cycles {
				st["to"] = cycles
			}
			if from, ok := st["from"].(float64); ok && int(from) >= cycles {
				st["from"] = cycles - 1
			}
		}
		doc, err := json.Marshal(spec) // map keys marshal sorted: deterministic bytes
		if err != nil {
			return nil, err
		}
		docs = append(docs, doc)
	}
	return docs, nil
}

// round6 keeps generated coordinates short and exactly reproducible in
// their JSON text.
type round6 float64

func (x round6) MarshalJSON() ([]byte, error) {
	s := fmt.Sprintf("%.6f", float64(x))
	s = strings.TrimRight(strings.TrimRight(s, "0"), ".")
	if s == "" || s == "-" {
		s = "0"
	}
	return []byte(s), nil
}

// Full sizes of the serve workloads' request lists.  A cold 2-cycle
// P=8 implicit request is ~0.3 s of one core; 24 of them keep a
// two-client pass near 3.5 s while averaging the +-10 % the geometric
// request seed puts on a single world.
const (
	coldRequests      = 24 // distinct requests per serve-cold pass
	cachedDigests     = 8  // distinct digests behind serve-cached
	cachedRepeats     = 100
	collapsedRequests = 12 // pairs per serve-collapsed pass
)

// genRequests returns n distinct request bodies for POST /run.  Each
// serve workload draws from its own stream, so the three lists of one
// seed do not overlap (a collapsed request must never be answerable
// from the cold phase's cache).
func genRequests(stream string, seed int64, n int) [][]byte {
	r := newRNG(seed, stream)
	seen := make(map[int64]bool, n)
	reqs := make([][]byte, 0, n)
	for len(reqs) < n {
		s := int64(r.next()%999_999_937) + 1
		if seen[s] {
			continue
		}
		seen[s] = true
		reqs = append(reqs, []byte(fmt.Sprintf(
			`{"p":8,"cycles":2,"workload":"implicit","seed":%d}`, s)))
	}
	return reqs
}
