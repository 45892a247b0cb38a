package main

import (
	"encoding/json"
	"fmt"
)

// The benchmark's declarations: the workloads, the end-to-end metrics
// with their regression bounds, and the per-layer metrics with the
// end-to-end metric and workload each is expected to move.  The
// repository-root BENCHMARK.json is generated from these tables
// (`go run . spec`) and a self-test pins the two together, so a metric
// cannot be emitted without being declared or declared without being
// emitted.

// runSeconds is how long one run measures (BENCHMARK.json run_seconds).
const runSeconds = 10

// Workload names.  The three serve-* workloads are the three phases of
// one seeded request replay ("serve-replay"); each is addressable on
// its own because every run must report every end-to-end metric, and a
// cold, a cached and a collapsed request have nothing but the request
// list in common.
const (
	wlAdaptCycle     = "adapt-cycle"
	wlImplicitSolve  = "implicit-solve"
	wlScenarioSweep  = "scenario-sweep"
	wlServeCold      = "serve-cold"
	wlServeCached    = "serve-cached"
	wlServeCollapsed = "serve-collapsed"
)

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDecl{
	{wlAdaptCycle, "explicit solve-adapt-balance cycle, P=8, mesh 3.9k to ~160k elements: adapt+pmesh do ~70% of host time, linalg none"},
	{wlImplicitSolve, "same cycle under PCG+SPAI at P=16: linalg plus msg/event do ~75%, adapt+pmesh ~10%; adaption gains must not show here"},
	{wlScenarioSweep, "nine seed-jittered scenario specs, 18 worlds fanned over host cores, half traced; NAdapt=1 makes SPAI setup outweigh PCG"},
	{wlServeCold, "distinct requests over loopback HTTP, 2 closed-loop clients: every simulator layer reached through serve and RunWorldCtx"},
	{wlServeCached, "every digest re-requested: decode, digest, cache read and SHA-256 verify only; the simulator is bypassed"},
	{wlServeCollapsed, "each fresh request POSTed by both clients at once: one world runs, the singleflight follower waits for it"},
}

func isWorkload(name string) bool {
	for _, w := range workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

func isServeWorkload(name string) bool {
	return name == wlServeCold || name == wlServeCached || name == wlServeCollapsed
}

// endToEndDecl is one gated metric.  Bound is the share of the parent's
// median by which the metric may worsen before a change counts as a
// regression.  Every workload reports every end-to-end metric; Def says
// what the name means on each.  Exact marks a pure function of the
// seed: two runs of one seed must report it bit for bit.
type endToEndDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	Exact  bool    `json:"-"`
	Def    string  `json:"-"`
}

var endToEnd = []endToEndDecl{
	{"setup_s", "s", "lower", 0.25, false,
		"median of three harness builds (NewExperiments, specs or request list, server + cache open) plus the untimed warm-up repetition"},
	{"epochs_per_s", "1/s", "higher", 0.15, false,
		"adapt-balance-solve epochs of one repetition / median repetition wall-clock (serve-*: epoch rows delivered / wall)"},
	{"allocs_per_epoch", "count", "lower", 0.05, false,
		"MemStats.Mallocs delta over the timed window / epochs in it"},
	{"sim_makespan_s", "s", "lower", 0.05, true,
		"sum of the simulated makespans of one repetition's distinct worlds (serve-*: sum of sim_time over the distinct end records); identical across repetitions"},
	{"op_ms_p50", "ms", "lower", 0.15, false,
		"median latency of the workload's operation: one world run, one sweep, or one request sent -> last byte (collapsed: pair sent -> last byte of the slower)"},
}

// perLayerDecl is one per-layer metric.  Src is T (layer-tour span), K
// (isolated kernel call, no world around it), C (exact counter from
// exported return values or an obs.Default snapshot delta; identical
// between two runs of one seed) or H (a process-wide host reading).
// Moves names the end-to-end metric and workload the metric should
// move.
type perLayerDecl struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	Src    string `json:"-"`
	Moves  string `json:"-"`
}

const (
	mvSetupAll    = "setup_s @ all"
	mvAdapt       = "epochs_per_s @ adapt-cycle"
	mvImplicit    = "epochs_per_s @ implicit-solve"
	mvScenario    = "epochs_per_s @ scenario-sweep"
	mvSimAdapt    = "sim_makespan_s @ adapt-cycle"
	mvSimImplicit = "sim_makespan_s @ implicit-solve"
	mvSimScenario = "sim_makespan_s @ scenario-sweep"
	mvSimAll      = "sim_makespan_s @ all"
	mvCold        = "op_ms_p50 @ serve-cold"
	mvCached      = "op_ms_p50 @ serve-cached"
	mvCollapsed   = "op_ms_p50 @ serve-collapsed"
	mvEpochsAll   = "epochs_per_s @ all"
	mvNone        = "none (validity of the tour) @ all"
)

var perLayer = []perLayerDecl{
	{"mesh.box_ms", "ms", "lower", "K", mvSetupAll},
	{"dual.from_mesh_ms", "ms", "lower", "K", mvSetupAll},

	{"adapt.mark_refine_ms", "ms", "lower", "K", mvAdapt},
	{"adapt.coarsen_ms", "ms", "lower", "K", mvAdapt},
	{"adapt.remove_family_us", "us", "lower", "K", mvAdapt},
	{"adapt.elems_final", "count", "lower", "C", mvSimAll},
	{"adapt.rounds", "count", "lower", "C", mvSimAdapt},

	{"pmesh.new_ms", "ms", "lower", "T", mvAdapt},
	{"pmesh.coarsen_ms", "ms", "lower", "T", mvAdapt},
	{"pmesh.mark_ms", "ms", "lower", "T", mvAdapt},
	{"pmesh.weights_ms", "ms", "lower", "T", mvAdapt},
	{"pmesh.migrate_ms", "ms", "lower", "T", mvAdapt},
	{"pmesh.refine_ms", "ms", "lower", "T", mvAdapt},
	{"pmesh.counts_ms", "ms", "lower", "T", mvAdapt},
	{"pmesh.elems_moved", "count", "lower", "C", mvSimAdapt},
	{"pmesh.bytes_moved", "count", "lower", "C", mvSimAdapt},
	{"pmesh.msgs_moved", "count", "lower", "C", mvSimAdapt},

	{"partition.serial_ms", "ms", "lower", "K", mvCold},
	{"partition.repartition_ms", "ms", "lower", "T", mvAdapt},
	{"partition.edge_cut", "count", "lower", "C", mvSimImplicit},
	{"partition.imbalance", "ratio", "lower", "C", mvSimImplicit},

	{"remap.similarity_ms", "ms", "lower", "T", mvScenario},
	{"remap.mapper_ms", "ms", "lower", "T", mvScenario},
	{"remap.mapper_heu_us", "us", "lower", "K", mvScenario},
	{"remap.mapper_opt_us", "us", "lower", "K", mvScenario},
	{"remap.mapper_bmcm_us", "us", "lower", "K", mvScenario},
	{"remap.total_v", "count", "lower", "C", mvSimScenario},
	{"remap.max_v", "count", "lower", "C", mvSimScenario},
	{"remap.accepts", "count", "higher", "C", mvSimScenario},
	{"remap.measured_wins", "count", "higher", "C", mvSimScenario},

	{"solver.rebuild_ms", "ms", "lower", "T", mvAdapt},
	{"solver.step_ms", "ms", "lower", "T", mvAdapt},

	{"linalg.assemble_ms", "ms", "lower", "T", mvScenario},
	{"linalg.spai_setup_ms", "ms", "lower", "T", mvScenario},
	{"linalg.pcg_ms", "ms", "lower", "T", mvImplicit},
	{"linalg.exact_dot_us", "us", "lower", "K", mvImplicit},
	{"linalg.spmv_us", "us", "lower", "K", mvImplicit},
	{"linalg.acc_wire_ns", "ns", "lower", "K", mvImplicit},
	{"linalg.pcg_iters", "count", "lower", "C", mvSimImplicit},

	{"msg.pingpong_ns", "ns", "lower", "K", mvImplicit},
	{"msg.allreduce_us", "us", "lower", "K", mvImplicit},
	{"msg.messages_user", "count", "lower", "C", mvSimAll},
	{"msg.messages_coll", "count", "lower", "C", mvSimAll},
	{"msg.bytes_user", "count", "lower", "C", mvSimAll},
	{"msg.bytes_coll", "count", "lower", "C", mvSimAll},
	{"msg.pool_hit_ratio", "ratio", "higher", "C", mvImplicit},

	{"event.handoffs", "count", "lower", "C", mvImplicit},
	{"event.fast_ratio", "ratio", "higher", "C", mvImplicit},
	{"event.blocks", "count", "lower", "C", mvImplicit},
	{"event.calendar_highwater", "count", "lower", "C", mvImplicit},
	{"event.trace_overhead", "ratio", "lower", "K", mvScenario},
	{"event.trace_overhead_epoch", "ratio", "lower", "K", mvScenario},
	{"event.records", "count", "lower", "K", mvScenario},
	{"event.analysis_ms", "ms", "lower", "K", mvScenario},

	{"profile.from_trace_ms", "ms", "lower", "K", mvScenario},
	{"scenario.load_ms", "ms", "lower", "K", "setup_s @ scenario-sweep"},

	{"serve.parse_us", "us", "lower", "K", mvCached},
	{"serve.cache_get_us", "us", "lower", "K", mvCached},
	{"serve.cache_put_us", "us", "lower", "K", mvCold},
	{"serve.direct_ms", "ms", "lower", "T", mvCold},
	{"serve.overhead_ms", "ms", "lower", "T", mvCold},
	{"serve.ttfb_ms_p50", "ms", "lower", "T", mvCold},
	{"serve.cold_ms_p50", "ms", "lower", "T", mvCold},
	{"serve.cold_ms_p75", "ms", "lower", "T", mvCold},
	{"serve.cached_ms_p50", "ms", "lower", "T", mvCached},
	{"serve.cached_ms_p99", "ms", "lower", "T", mvCached},
	{"serve.collapsed_ms_p50", "ms", "lower", "T", mvCollapsed},
	{"serve.requests_ok", "count", "higher", "C", mvCold},
	{"serve.requests_cached", "count", "higher", "C", mvCached},
	{"serve.requests_singleflight", "count", "higher", "C", mvCollapsed},
	{"serve.requests_shed", "count", "lower", "C", mvCold},

	{"core.sim_per_host", "ratio", "higher", "H", mvEpochsAll},
	{"core.bytes_per_epoch", "count", "lower", "H", mvEpochsAll},
	{"core.peak_rss_mb", "MB", "lower", "H", mvEpochsAll},
	{"core.gc_cpu_frac", "ratio", "lower", "H", mvScenario},
	{"core.cpu_per_wall", "ratio", "higher", "H", mvScenario},
	{"core.sim_mark_s", "s", "lower", "C", mvSimAll},
	{"core.sim_partition_s", "s", "lower", "C", mvSimAll},
	{"core.sim_reassign_s", "s", "lower", "C", mvSimAll},
	{"core.sim_remap_s", "s", "lower", "C", mvSimAll},
	{"core.sim_refine_s", "s", "lower", "C", mvSimAll},
	{"core.sim_solve_s", "s", "lower", "C", mvSimAll},
	{"core.fig4_adapt_speedup", "ratio", "higher", "C", mvSimAdapt},
	{"core.fig6_part_flatness", "ratio", "lower", "C", mvSimAdapt},

	{"bench.tour_ms", "ms", "lower", "T", mvNone},
	{"bench.tour_cover", "ratio", "lower", "T", mvNone},
	{"bench.tour_barrier_ms", "ms", "lower", "T", mvNone},
}

// benchmarkSpec is the exact shape of the repository-root
// BENCHMARK.json.
type benchmarkSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []endToEndDecl `json:"end_to_end"`
	PerLayer   []perLayerDecl `json:"per_layer"`
}

func declaredSpec() benchmarkSpec {
	return benchmarkSpec{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
}

// specJSON renders BENCHMARK.json.
func specJSON() []byte {
	b, err := json.MarshalIndent(declaredSpec(), "", "  ")
	if err != nil {
		panic(fmt.Sprintf("benchmark: marshal spec: %v", err))
	}
	return append(b, '\n')
}
