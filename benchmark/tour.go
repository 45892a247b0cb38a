package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// The traced pass (--trace 1): the layer tour, the exact counters and
// the isolated kernels that supply every per-layer metric.  End-to-end
// numbers are never taken here.
//
// Spans are recorded from the benchmark's own files, around the calls
// into each layer; they stay in memory and are written once, when the
// run ends.

// span is one recorded interval.  Start and End are seconds since the
// recorder was created.  Spans of one world share World; a phase span's
// parent is its epoch span, an epoch span's parent the world's root.
type span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent"` // -1 for a root
	Name     string  `json:"name"`
	Workload string  `json:"workload"`
	World    string  `json:"world,omitempty"`
	Epoch    int     `json:"epoch"` // -1 outside any epoch
	Start    float64 `json:"start"`
	End      float64 `json:"end"`
}

type spanRecorder struct {
	workload string
	origin   time.Time
	spans    []span

	// State of the world tour being recorded.
	world     string
	root      int
	epochSpan int
	last      time.Time
}

func newSpanRecorder(workload string) *spanRecorder {
	return &spanRecorder{workload: workload, origin: time.Now()}
}

func (r *spanRecorder) add(name string, parent, epoch int, start, end time.Time) int {
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Workload: r.workload,
		World: r.world, Epoch: epoch, Start: start.Sub(r.origin).Seconds(), End: end.Sub(r.origin).Seconds()})
	return id
}

// begin opens a world's root span.  Rank 0 only.
func (r *spanRecorder) begin() {
	r.last = time.Now()
	r.root = r.add("tour", -1, -1, r.last, r.last)
	r.epochSpan = -1
}

// mark closes the span that began at the previous mark (or at begin)
// under the given name.  Rank 0 only.
func (r *spanRecorder) mark(name string, epoch int) {
	now := time.Now()
	parent := r.root
	if epoch >= 0 {
		if r.epochSpan < 0 || r.spans[r.epochSpan].Epoch != epoch {
			r.epochSpan = r.add("epoch", r.root, epoch, r.last, r.last)
		}
		parent = r.epochSpan
		r.spans[parent].End = now.Sub(r.origin).Seconds()
	}
	r.add(name, parent, epoch, r.last, now)
	r.spans[r.root].End = now.Sub(r.origin).Seconds()
	r.last = now
}

// rootSeconds is the wall-clock of the most recent world tour.
func (r *spanRecorder) rootSeconds() float64 {
	return r.spans[r.root].End - r.spans[r.root].Start
}

// selfMs sums, per span name, the self time of the spans from index
// from on: a span's duration minus what its children cover.
func (r *spanRecorder) selfMs(from int) map[string]float64 {
	covered := make(map[int]float64)
	for _, s := range r.spans[from:] {
		if s.Parent >= 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	self := make(map[string]float64)
	for _, s := range r.spans[from:] {
		self[s.Name] += (s.End - s.Start - covered[s.ID]) * 1e3
	}
	return self
}

// writeSpans writes one JSON object per line.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tourSpanMetrics maps span names to the per-layer metric they feed.
// Spans without an entry (solver.init, core.tail, the serve stages'
// own) are in the span file and in bench.tour_ms only.
var tourSpanMetrics = map[string]string{
	"pmesh.new": "pmesh.new_ms", "pmesh.coarsen": "pmesh.coarsen_ms", "pmesh.mark": "pmesh.mark_ms",
	"pmesh.weights": "pmesh.weights_ms", "pmesh.migrate": "pmesh.migrate_ms", "pmesh.refine": "pmesh.refine_ms",
	"pmesh.counts": "pmesh.counts_ms", "partition.repartition": "partition.repartition_ms",
	"remap.similarity": "remap.similarity_ms", "remap.mapper": "remap.mapper_ms",
	"solver.rebuild": "solver.rebuild_ms", "solver.step": "solver.step_ms",
	"linalg.assemble": "linalg.assemble_ms", "linalg.spai_setup": "linalg.spai_setup_ms", "linalg.pcg": "linalg.pcg_ms",
}

// compareTour counts every per-epoch counter the tour and core's own
// run of the same plan must agree on.
func compareTour(c *checker, what string, tour, ref worldResult) {
	if len(tour.Epochs) != len(ref.Epochs) {
		c.fail(len(ref.Epochs), "%s: tour ran %d epochs, core %d", what, len(tour.Epochs), len(ref.Epochs))
		return
	}
	for i, t := range tour.Epochs {
		r := ref.Epochs[i]
		if t.Elems != r.Elems || t.Accepted != r.Accepted || t.Balanced != r.Balanced ||
			t.PCGIters != r.PCGIters || t.Rounds != r.Rounds || t.ElemsMoved != r.ElemsMoved ||
			t.BytesMoved != r.BytesMoved || t.TotalV != r.TotalV || t.Converged != r.Converged {
			c.fail(1, "%s epoch %d: tour %+v, core %+v", what, i, t, r)
		} else {
			c.pass(1)
		}
	}
	if tour.EdgeCut != ref.EdgeCut {
		c.fail(1, "%s: tour edge cut %d, core %d", what, tour.EdgeCut, ref.EdgeCut)
	}
}

// worldCounters fills the C-sourced metrics of one or more reference
// worlds run through core.
func worldCounters(m map[string]float64, refs ...worldResult) {
	for _, ref := range refs {
		for _, ep := range ref.Epochs {
			m["adapt.rounds"] += float64(ep.Rounds)
			m["pmesh.elems_moved"] += float64(ep.ElemsMoved)
			m["pmesh.bytes_moved"] += float64(ep.BytesMoved)
			m["pmesh.msgs_moved"] += float64(ep.MsgsMoved)
			m["remap.total_v"] += float64(ep.TotalV)
			m["remap.max_v"] += float64(ep.MaxV)
			if ep.Accepted {
				m["remap.accepts"]++
			}
			m["linalg.pcg_iters"] += float64(ep.PCGIters)
			m["core.sim_mark_s"] += ep.SimMark
			m["core.sim_partition_s"] += ep.SimPartition
			m["core.sim_reassign_s"] += ep.SimReassign
			m["core.sim_remap_s"] += ep.SimRemap
			m["core.sim_refine_s"] += ep.SimRefine
			m["core.sim_solve_s"] += ep.SimSolve
		}
		last := ref.Epochs[len(ref.Epochs)-1]
		m["adapt.elems_final"] += float64(last.Elems)
		m["partition.edge_cut"] += float64(ref.EdgeCut)
		if last.WorkBalance > 0 {
			// Realized solver-work imbalance of the final epoch, Wmax/Wavg.
			m["partition.imbalance"] = max(m["partition.imbalance"], 1/last.WorkBalance)
		}
	}
}

// hostCounters fills the obs.Default deltas and process readings of a
// window that ran `epochs` epochs through core.
func hostCounters(m map[string]float64, before, after counterSnapshot, host hostDelta, epochs int, sim float64) {
	n := float64(max(epochs, 1))
	m["msg.messages_user"] = (after.MsgsUser - before.MsgsUser) / n
	m["msg.messages_coll"] = (after.MsgsColl - before.MsgsColl) / n
	m["msg.bytes_user"] = (after.BytesUser - before.BytesUser) / n
	m["msg.bytes_coll"] = (after.BytesColl - before.BytesColl) / n
	hits, misses := after.PoolHits-before.PoolHits, after.PoolMisses-before.PoolMisses
	m["msg.pool_hit_ratio"] = hits / max(hits+misses, 1)
	// Ranks yield to the engine only where a topology prices the send;
	// on the uniform SP2 both yield counters stay 0.
	fast, handoffs := after.FastYields-before.FastYields, after.Handoffs-before.Handoffs
	m["event.handoffs"] = handoffs
	m["event.fast_ratio"] = fast / max(fast+handoffs, 1)
	m["event.blocks"] = after.Blocks - before.Blocks
	m["event.calendar_highwater"] = after.CalendarHighWater
	m["core.bytes_per_epoch"] = host.Bytes / n
	m["core.gc_cpu_frac"] = host.GCFrac
	if host.Wall > 0 {
		m["core.cpu_per_wall"] = host.CPU / host.Wall
		m["core.sim_per_host"] = sim / host.Wall
	}
}

// runTour is the traced pass of any workload.
func runTour(o runOpts) (*outcome, error) {
	out := &outcome{metrics: make(map[string]float64)}
	rec := newSpanRecorder(o.workload)
	h := newHarness()
	var err error
	if isServeWorkload(o.workload) {
		err = serveTour(o, h, rec, out)
	} else {
		err = worldTour(o, h, rec, out)
	}
	if err != nil {
		return nil, err
	}

	docs, err := genScenarioSpecs(o.seed, o.sz)
	if err != nil {
		return nil, err
	}
	kernels, err := h.runKernels(docs, filepath.Join(o.workDir, "kernel-cache"))
	if err != nil {
		return nil, err
	}
	for k, v := range kernels {
		out.metrics[k] = v
	}
	out.metrics["core.fig4_adapt_speedup"], out.metrics["core.fig6_part_flatness"] = paperShapes()
	out.metrics["core.peak_rss_mb"] = peakRSSMB()
	out.spans = rec.spans
	return out, nil
}

// worldTour tours a world workload.  For each toured world, in one
// pass: the world alone and untraced through core (the reference: its
// counters, its wall-clock), then the same plan through the tour.
// bench.tour_cover is tour wall / reference wall; the excess over 1 is
// what the tour's stamping costs, bench.tour_barrier_ms its known part.
func worldTour(o runOpts, h *harness, rec *spanRecorder, out *outcome) error {
	m := out.metrics
	type tourPlan struct {
		name string
		plan func() (*worldPlan, error)
		sim  float64 // scenario plans: the sweep's simulated makespan for the spec
	}
	var plans []tourPlan
	var sweep *sweepResult

	if o.workload == wlScenarioSweep {
		docs, err := genScenarioSpecs(o.seed, o.sz)
		if err != nil {
			return err
		}
		specs, err := loadScenarios(docs)
		if err != nil {
			return err
		}
		// One sweep, for the counters only a fan-out has: both cores
		// busy, half the worlds traced, measured against analytic.
		before, probe := snapshotCounters(), readHost()
		s := h.runSweep(specs)
		hostCounters(m, before, snapshotCounters(), probe.since(), s.Epochs, sum(s.SimTimes))
		sweep = &s
		out.digest = s.Digest
		// The tour takes the first spec of each kind, one world at a time.
		seen := make(map[string]bool)
		for i, sp := range specs {
			if seen[sp.Kind] {
				continue
			}
			seen[sp.Kind] = true
			plans = append(plans, tourPlan{sp.Name, func() (*worldPlan, error) { return h.planScenario(sp) }, s.SimTimes[2*i]})
		}
	} else {
		in := genCycleInputs(o.workload, o.seed, o.sz)
		plans = append(plans, tourPlan{o.workload, func() (*worldPlan, error) { return h.planCycle(in), nil }, 0})
	}

	var covers, barriers, tourMs []float64
	spanMs := make(map[string][]float64)
	var refs []worldResult
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start).Seconds() < o.seconds; pass++ {
		var refWall, tourWall, barrierMs float64
		from := len(rec.spans)
		refs = refs[:0]
		for _, tp := range plans {
			pl, err := tp.plan()
			if err != nil {
				return err
			}
			before, probe := snapshotCounters(), readHost()
			ref, _ := h.runWorld(pl, false)
			if sweep == nil {
				hostCounters(m, before, snapshotCounters(), probe.since(), len(ref.Epochs), ref.SimTime)
				out.digest = digestOf(ref.digestInto)
			} else if ref.SimTime != tp.sim {
				// The plan is the benchmark's reading of core.RunScenario;
				// the sweep's own makespan for the spec says whether it
				// still reads right.
				out.fail(1, "%s: world from the plan ends at %v simulated s, the sweep's at %v", tp.name, ref.SimTime, tp.sim)
			}
			for i, ep := range ref.Epochs {
				if pl.implicit && !ep.Converged {
					out.fail(1, "%s epoch %d: PCG did not converge", tp.name, i)
				}
			}
			refs = append(refs, ref)
			refWall += ref.Wall.Seconds()

			if pl, err = tp.plan(); err != nil {
				return err
			}
			rec.world = fmt.Sprintf("%s#%d", tp.name, pass)
			tour, bms, err := h.tourWorld(pl, rec)
			if err != nil {
				out.fail(1, "%s: %v", tp.name, err)
			} else {
				out.pass(1) // invariants + conservation
			}
			compareTour(&out.checker, tp.name, tour, ref)
			tourWall += rec.rootSeconds()
			barrierMs += bms
		}
		rec.world = ""
		covers = append(covers, tourWall/refWall)
		barriers = append(barriers, barrierMs)
		tourMs = append(tourMs, tourWall*1e3)
		for name, v := range rec.selfMs(from) {
			spanMs[name] = append(spanMs[name], v)
		}
	}

	for name, metric := range tourSpanMetrics {
		m[metric] = median(spanMs[name])
	}
	m["bench.tour_ms"] = median(tourMs)
	m["bench.tour_cover"] = median(covers)
	m["bench.tour_barrier_ms"] = median(barriers)
	worldCounters(m, refs...)
	if sweep != nil {
		// Sweep-wide counters replace the four toured worlds' where the
		// sweep reports them.
		m["adapt.elems_final"] = float64(sweep.ElemsFinal)
		m["remap.total_v"] = float64(sweep.TotalV)
		m["remap.max_v"] = float64(sweep.MaxV)
		m["remap.accepts"] = float64(sweep.Accepts)
		m["remap.measured_wins"] = float64(sweep.MeasuredWins)
	}
	return nil
}

// serveTour replays the whole seeded request list once — cold, cached,
// collapsed — with client-side stage spans, then takes a leading
// request apart through the exported serve calls.
func serveTour(o runOpts, h *harness, rec *spanRecorder, out *outcome) error {
	m := out.metrics
	nCold, nCollapsed, repeats, nStaged := 48, 12, cachedRepeats, 8
	if o.sz.Requests > 0 {
		nCold, nCollapsed, repeats, nStaged = o.sz.Requests, o.sz.Requests, 5, 2
	}
	cold := genRequests(wlServeCold, o.seed, nCold)
	coll := genRequests(wlServeCollapsed, o.seed, nCollapsed)
	led := newLedger(&out.checker)

	r, err := newRig(h, o.workDir)
	if err != nil {
		return err
	}
	defer func() { r.close() }()

	phase := func(name string, start time.Time) int {
		return rec.add(name, -1, -1, start, time.Now())
	}
	requestSpans := func(parent int, rep reply) {
		id := rec.add("serve.client.request", parent, -1, rep.start, rep.last)
		if !rep.first.IsZero() {
			rec.add("serve.client.ttfb", id, -1, rep.start, rep.first)
			rec.add("serve.client.body", id, -1, rep.first, rep.last)
		}
	}

	before, probe := snapshotCounters(), readHost()
	simulated := 0.0

	// Cold: every request distinct.
	t0 := time.Now()
	replies, _ := r.closedLoop(cold)
	id := phase("serve.cold", t0)
	var coldMs, ttfbMs []float64
	for i, rep := range replies {
		if t, ok := led.judge(cold[i], rep, "miss"); ok {
			simulated += t.SimTime
		}
		requestSpans(id, rep)
		coldMs = append(coldMs, rep.latency())
		ttfbMs = append(ttfbMs, msBetween(rep.start, rep.first))
	}
	epochs := led.epochs
	coldHost, afterCold := probe.since(), snapshotCounters()

	// Cached: every digest again, `repeats` times.
	list := repeatList(cold, repeats)
	t0 = time.Now()
	replies, _ = r.closedLoop(list)
	id = phase("serve.cached", t0)
	var cachedMs []float64
	for i, rep := range replies {
		led.judge(list[i], rep, "hit")
		requestSpans(id, rep)
		cachedMs = append(cachedMs, rep.latency())
	}

	// Collapsed: fresh requests, both clients at once.
	t0 = time.Now()
	pairs, _ := r.collapsed(coll)
	id = phase("serve.collapsed", t0)
	var collMs []float64
	for i, p := range pairs {
		led.judgePair(coll[i], p)
		pid := rec.add("serve.client.pair", id, -1, p.start, p.last)
		for _, rep := range p.replies {
			requestSpans(pid, rep)
		}
		collMs = append(collMs, p.latency())
	}
	after := snapshotCounters()

	// The daemon's own counters over the three phases.
	m["serve.requests_ok"] = after.ReqOK - before.ReqOK
	m["serve.requests_cached"] = after.ReqCached - before.ReqCached
	m["serve.requests_singleflight"] = after.ReqSingleflight - before.ReqSingleflight
	m["serve.requests_shed"] = after.ReqShed - before.ReqShed
	want := [4]float64{float64(nCold + nCollapsed), float64(nCold * repeats), float64(nCollapsed), 0}
	got := [4]float64{m["serve.requests_ok"], m["serve.requests_cached"], m["serve.requests_singleflight"], m["serve.requests_shed"]}
	if got != want {
		out.fail(1, "daemon counted ok/cached/singleflight/shed = %v, the replay sent %v", got, want)
	} else {
		out.pass(1)
	}
	hostCounters(m, before, afterCold, coldHost, epochs, simulated)

	m["serve.cold_ms_p50"] = median(coldMs)
	m["serve.cold_ms_p75"] = percentile(coldMs, 75)
	m["serve.ttfb_ms_p50"] = median(ttfbMs)
	m["serve.cached_ms_p50"] = median(cachedMs)
	m["serve.cached_ms_p99"] = percentile(cachedMs, 99)
	m["serve.collapsed_ms_p50"] = median(collMs)
	if o.sz.Requests == 0 {
		// The metric names fix the percentiles; the sample counts must
		// make those the highest ones with ten samples beyond them.
		if p := tailPercentile(len(coldMs)); p != 75 {
			return fmt.Errorf("serve tour: %d cold samples support p%v, not the declared p75", len(coldMs), p)
		}
		if p := tailPercentile(len(cachedMs)); p != 99 {
			return fmt.Errorf("serve tour: %d cached samples support p%v, not the declared p99", len(cachedMs), p)
		}
	}

	// One client alone, cold, on the leading requests; then the same
	// requests by hand through the exported serve calls.  The difference
	// of the two medians is what the daemon adds to a world.
	staged := cold[:nStaged]
	r.close()
	if r, err = newRig(h, o.workDir); err != nil {
		return err
	}
	var aloneMs []float64
	for _, reqJSON := range staged {
		rep := r.post(reqJSON)
		led.judge(reqJSON, rep, "miss")
		aloneMs = append(aloneMs, rep.latency())
	}
	cache, err := openCache(filepath.Join(o.workDir, "staged-cache"))
	if err != nil {
		return err
	}
	from := len(rec.spans)
	t0 = time.Now()
	stagedRoot := rec.add("serve.staged", -1, -1, t0, t0)
	for _, reqJSON := range staged {
		t := time.Now()
		reqSpan := rec.add("serve.staged.request", stagedRoot, -1, t, t)
		_, err := h.directRun(reqJSON, cache, func(name string, start time.Time) {
			rec.add(name, reqSpan, -1, start, time.Now())
		})
		rec.spans[reqSpan].End = time.Since(rec.origin).Seconds()
		if err != nil {
			out.fail(1, "%v", err)
		} else {
			out.pass(1)
		}
	}
	rec.spans[stagedRoot].End = time.Since(rec.origin).Seconds()
	var directMs []float64
	for _, s := range rec.spans[from:] {
		if s.Name == "serve.direct" {
			directMs = append(directMs, (s.End-s.Start)*1e3)
		}
	}
	m["serve.direct_ms"] = median(directMs)
	m["serve.overhead_ms"] = median(aloneMs) - median(directMs)
	m["bench.tour_ms"] = (rec.spans[stagedRoot].End - rec.spans[stagedRoot].Start) * 1e3
	led.checkOracle(h, cold, 2)

	out.digest = led.digestOfBodies(cold)
	return nil
}
