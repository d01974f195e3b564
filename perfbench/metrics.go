package main

import (
	"runtime"
	"runtime/debug"
)

// metricDef declares one metric: its unit and direction, the workloads that
// report it, and, for a per-layer metric, the end-to-end metric it should
// move. BENCHMARK.json at the repository root must list the same names,
// units, directions and bounds (TestBenchmarkJSONMatchesRegistry).
type metricDef struct {
	Name      string
	Unit      string
	Better    string   // "lower" or "higher"
	Bound     float64  // end-to-end only: allowed worsening as a share of the parent's median
	Workloads []string // workloads reporting it
	Moves     string   // per-layer only: the end-to-end metric it should move
}

var (
	// gatedWorkloads are the workloads BENCHMARK.json lists. Each runs the
	// paper pipeline on its scenario, a schedd round and a plan verdict,
	// so each reports every gated metric. schedd-closed stays out until the
	// TimeShared livelock is fixed: its runs stall once a shard's simulated
	// clock passes ~1.3e5 s, so they cannot pass.
	gatedWorkloads = []string{"fig6-het", "fig4-hom"}
	allWorkloads   = []string{"fig6-het", "fig4-hom", "schedd-closed"}
	closedWorkload = []string{"schedd-closed"}
	// algorithms are the paper's comparison set (Figs. 4-6).
	algorithms = []string{"aco", "base", "hbo", "rbs"}
)

var endToEnd, perLayer = buildRegistry()

func buildRegistry() (e2e, layer []metricDef) {
	e2e = append(e2e, metricDef{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Workloads: allWorkloads})
	for _, alg := range algorithms {
		e2e = append(e2e, metricDef{Name: "run_s." + alg, Unit: "s", Better: "lower", Bound: 0.25, Workloads: gatedWorkloads})
	}
	for _, alg := range algorithms {
		e2e = append(e2e, metricDef{Name: "sched_s." + alg, Unit: "s", Better: "lower", Bound: 0.25, Workloads: gatedWorkloads})
	}
	e2e = append(e2e,
		metricDef{Name: "schedd.cloudlets_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Workloads: closedWorkload},
		metricDef{Name: "schedd.round_s", Unit: "s", Better: "lower", Bound: 0.25, Workloads: gatedWorkloads},
		metricDef{Name: "plan.verdict_s", Unit: "s", Better: "lower", Bound: 0.25, Workloads: gatedWorkloads},
	)

	add := func(name, unit, better, moves string, wls ...string) {
		layer = append(layer, metricDef{Name: name, Unit: unit, Better: better, Workloads: wls, Moves: moves})
	}
	add("workload.generate_s", "s", "lower", "run_s.* on fig4-hom", gatedWorkloads...)
	add("objective.matrix_build_s", "s", "lower", "sched_s.aco and sched_s.hbo on fig6-het; flat on fig4-hom", gatedWorkloads...)
	add("objective.classes", "count", "lower", "explains objective.matrix_build_s", gatedWorkloads...)
	for _, alg := range algorithms {
		add("cloud.execute_s."+alg, "s", "lower", "run_s."+alg+" on fig4-hom", gatedWorkloads...)
	}
	for _, alg := range algorithms {
		add("sim.events."+alg, "count", "lower", "explains run_s."+alg+" on fig4-hom", gatedWorkloads...)
	}
	add("metrics.collect_s", "s", "lower", "run_s.base on fig4-hom", gatedWorkloads...)
	for _, alg := range algorithms {
		add("alloc_bytes."+alg, "bytes", "lower", "run_s."+alg, gatedWorkloads...)
	}
	add("gc.cycles", "count", "lower", "run_s.*", gatedWorkloads...)

	serving := "schedd.round_s on fig6-het and fig4-hom, schedd.cloudlets_per_s on schedd-closed"
	add("tracecol.read_s", "s", "lower", "schedd.round_s on fig6-het and fig4-hom, setup_s on schedd-closed", allWorkloads...)
	add("service.new_s", "s", "lower", "schedd.round_s on fig6-het and fig4-hom, setup_s on schedd-closed", allWorkloads...)
	add("service.submit_s", "s", "lower", serving, allWorkloads...)
	add("service.coalesce_wait_s", "s", "lower", serving, allWorkloads...)
	add("service.map_execute_s", "s", "lower", serving, allWorkloads...)
	add("service.status_s", "s", "lower", serving, allWorkloads...)
	add("service.poll_interval_s", "s", "lower", "resolution of service.coalesce_wait_s and service.map_execute_s", allWorkloads...)
	add("service.batches", "count", "lower", serving, allWorkloads...)
	add("service.batch_size_mean", "count", "higher", serving, allWorkloads...)
	add("service.empty_flushes", "count", "lower", serving, allWorkloads...)
	add("service.rejects", "count", "lower", serving, allWorkloads...)
	add("service.allocs_per_cloudlet", "count", "lower", serving, allWorkloads...)
	add("gc.pause_s", "s", "lower", serving, allWorkloads...)
	add("service.scrape_s", "s", "lower", "flat; moved by metrics instrumentation", allWorkloads...)
	add("sched.schedule_s.batch", "s", "lower", serving+" (map share)", allWorkloads...)
	add("online.session_run_s.batch", "s", "lower", serving+" (execute share)", allWorkloads...)
	add("cloud.sim_clock_s", "s", "lower", "failed attempts on schedd-closed (TimeShared livelock past ~1.3e5 simulated s)", allWorkloads...)

	add("workload.arrivals_s", "s", "lower", "plan.verdict_s", gatedWorkloads...)
	add("plan.run_s", "s", "lower", "plan.verdict_s", gatedWorkloads...)
	add("plan.probes", "count", "lower", "plan.verdict_s", gatedWorkloads...)
	add("sim.events.plan", "count", "lower", "plan.verdict_s", gatedWorkloads...)

	// The traced run also reports what tracing cost: traced minus untraced
	// value of each end-to-end timing, in that metric's unit.
	for _, m := range e2e {
		if m.Name == "setup_s" {
			continue
		}
		add("trace.overhead."+m.Name, m.Unit, m.Better, "tracing cost of "+m.Name, m.Workloads...)
	}
	return e2e, layer
}

// metricsFor lists the metrics workload reports in the given mode.
func metricsFor(workload string, traced bool) []metricDef {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	var out []metricDef
	for _, m := range defs {
		if contains(m.Workloads, workload) {
			out = append(out, m)
		}
	}
	return out
}

// gated keeps the metrics at least one gated workload reports.
func gated(defs []metricDef) []metricDef {
	var out []metricDef
	for _, m := range defs {
		for _, w := range m.Workloads {
			if contains(gatedWorkloads, w) {
				out = append(out, m)
				break
			}
		}
	}
	return out
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

// unitOf returns the declared unit of a metric name.
func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range defs {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return "?"
}

// hostInfo describes the machine and build a result was measured on.
func hostInfo() map[string]any {
	h := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"go":         runtime.Version(),
		"goamd64":    "",
		"commit":     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "GOAMD64":
				h["goamd64"] = s.Value
			case "vcs.revision":
				h["commit"] = s.Value
			case "vcs.modified":
				h["commit_modified"] = s.Value
			}
		}
	}
	return h
}
