// Package bioschedsim_test holds the repository-level benchmark harness:
// one benchmark per paper table and figure (see DESIGN.md's per-experiment
// index) plus the ablation benches. Benchmarks run scaled-down instances of
// the exact experiment code paths; `cloudsched figure <id>` regenerates the
// full curves. They are local probes, not a record: the repository's
// recorded, noise-gated benchmark is perfbench (perfbench/README.md).
package bioschedsim_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"bioschedsim/internal/aco"
	"bioschedsim/internal/cloud"
	"bioschedsim/internal/elastic"
	"bioschedsim/internal/hbo"
	"bioschedsim/internal/metrics"
	"bioschedsim/internal/objective"
	"bioschedsim/internal/online"
	"bioschedsim/internal/rbs"
	"bioschedsim/internal/sched"
	"bioschedsim/internal/sim"
	"bioschedsim/internal/workload"

	_ "bioschedsim/internal/experiments" // links every scheduler
)

// paperAlgorithms is the comparison set of the paper's figures.
var paperAlgorithms = []string{"aco", "base", "hbo", "rbs"}

// scheduleOnly benches just the mapping decision (Figs. 5, 6b). The
// -workers flag (see bench_parallel_test.go) bounds the kernel pool of
// WorkerTunable schedulers; results are bit-identical at every setting.
func scheduleOnly(b *testing.B, scenario *workload.Scenario, name string) {
	b.Helper()
	scheduler, err := sched.New(name, sched.WithWorkers(*benchWorkers))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := scenario.Context()
		if _, err := scheduler.Schedule(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// endToEnd benches schedule + simulate + metrics (Figs. 4, 6a/6c/6d).
func endToEnd(b *testing.B, mk func() *workload.Scenario, name string) {
	b.Helper()
	scheduler, err := sched.New(name)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scenario := mk()
		ctx := scenario.Context()
		start := time.Now()
		assignments, err := scheduler.Schedule(ctx)
		schedTime := time.Since(start)
		if err != nil {
			b.Fatal(err)
		}
		cls, vms := sched.Split(assignments)
		res, err := cloud.Execute(scenario.Env, cloud.TimeSharedFactory, cls, vms)
		if err != nil {
			b.Fatal(err)
		}
		rep := metrics.Collect(name, res.Finished, scenario.Env.VMs, schedTime)
		if rep.SimTime <= 0 {
			b.Fatal("empty report")
		}
	}
}

func homScenario(b *testing.B, vms, cloudlets int) func() *workload.Scenario {
	b.Helper()
	return func() *workload.Scenario {
		s, err := workload.Homogeneous(vms, cloudlets, 42)
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
}

func hetScenario(b *testing.B, vms, cloudlets int) func() *workload.Scenario {
	b.Helper()
	return func() *workload.Scenario {
		s, err := workload.Heterogeneous(vms, cloudlets, 4, 42)
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
}

// --- Figure 4: homogeneous simulation time ---------------------------------

func BenchmarkFig4a_HomogeneousSimTime(b *testing.B) {
	for _, alg := range paperAlgorithms {
		b.Run(alg, func(b *testing.B) { endToEnd(b, homScenario(b, 20, 2000), alg) })
	}
}

func BenchmarkFig4b_HomogeneousSimTimeLarge(b *testing.B) {
	for _, alg := range paperAlgorithms {
		b.Run(alg, func(b *testing.B) { endToEnd(b, homScenario(b, 180, 2000), alg) })
	}
}

// --- Figure 5: homogeneous scheduling time ---------------------------------

func BenchmarkFig5a_HomogeneousSchedTime(b *testing.B) {
	scenario := homScenario(b, 20, 2000)()
	for _, alg := range paperAlgorithms {
		b.Run(alg, func(b *testing.B) { scheduleOnly(b, scenario, alg) })
	}
}

func BenchmarkFig5b_HomogeneousSchedTimeLarge(b *testing.B) {
	scenario := homScenario(b, 180, 2000)()
	for _, alg := range paperAlgorithms {
		b.Run(alg, func(b *testing.B) { scheduleOnly(b, scenario, alg) })
	}
}

// --- Figure 6: heterogeneous panels -----------------------------------------

func BenchmarkFig6a_HeterogeneousSimTime(b *testing.B) {
	for _, alg := range paperAlgorithms {
		b.Run(alg, func(b *testing.B) { endToEnd(b, hetScenario(b, 50, 500), alg) })
	}
}

func BenchmarkFig6b_HeterogeneousSchedTime(b *testing.B) {
	scenario := hetScenario(b, 50, 500)()
	for _, alg := range paperAlgorithms {
		b.Run(alg, func(b *testing.B) { scheduleOnly(b, scenario, alg) })
	}
}

func BenchmarkFig6c_HeterogeneousImbalance(b *testing.B) {
	// Same end-to-end path; the imbalance metric itself is measured below.
	for _, alg := range paperAlgorithms {
		b.Run(alg, func(b *testing.B) { endToEnd(b, hetScenario(b, 30, 300), alg) })
	}
}

func BenchmarkFig6d_HeterogeneousCost(b *testing.B) {
	scenario := hetScenario(b, 50, 500)()
	scheduler, err := sched.New("hbo")
	if err != nil {
		b.Fatal(err)
	}
	assignments, err := scheduler.Schedule(scenario.Context())
	if err != nil {
		b.Fatal(err)
	}
	cls, _ := sched.Split(assignments)
	for i, a := range assignments {
		cls[i].VM = a.VM
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cloud.TotalProcessingCost(cls) <= 0 {
			b.Fatal("cost must be positive")
		}
	}
}

// --- Tables ------------------------------------------------------------------

func BenchmarkTableI_HBOCostModel(b *testing.B) {
	scenario := hetScenario(b, 50, 1)()
	vm := scenario.Env.VMs[0]
	c := scenario.Cloudlets[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cloud.ProcessingCost(c, vm) < 0 {
			b.Fatal("negative cost")
		}
	}
}

func BenchmarkTableII_ACOSingleIteration(b *testing.B) {
	scenario := hetScenario(b, 50, 500)()
	cfg := aco.DefaultConfig()
	cfg.Iterations = 1
	s := aco.New(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Schedule(scenario.Context()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableIIIandIV_HomogeneousGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := workload.Homogeneous(100, 1000, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableVtoVII_HeterogeneousGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := workload.Heterogeneous(100, 1000, 4, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations ----------------------------------------------------------------

func BenchmarkAblationACOParams(b *testing.B) {
	scenario := hetScenario(b, 30, 300)()
	for _, tc := range []struct {
		name string
		cfg  aco.Config
	}{
		{"table2", aco.DefaultConfig()},
		{"alpha-heavy", func() aco.Config { c := aco.DefaultConfig(); c.Alpha, c.Beta = 0.99, 0.01; return c }()},
		{"few-ants", func() aco.Config { c := aco.DefaultConfig(); c.Ants = 5; return c }()},
		{"one-iter", func() aco.Config { c := aco.DefaultConfig(); c.Iterations = 1; return c }()},
	} {
		s := aco.New(tc.cfg)
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s.Schedule(scenario.Context()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAblationHBOFacLB(b *testing.B) {
	scenario := hetScenario(b, 30, 300)()
	for _, tc := range []struct {
		name  string
		facLB float64
	}{
		{"half-fair", 5}, {"fair", 10}, {"default-1.5x", 15}, {"loose-3x", 30},
	} {
		s := hbo.New(hbo.Config{Groups: 2, FacLB: tc.facLB})
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s.Schedule(scenario.Context()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAblationRBSGroups(b *testing.B) {
	scenario := hetScenario(b, 32, 320)()
	for _, q := range []int{1, 2, 4, 8, 16} {
		s := rbs.New(rbs.Config{Groups: q})
		b.Run(fmt.Sprintf("groups-%02d", q), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s.Schedule(scenario.Context()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkExtensionSchedulers(b *testing.B) {
	scenario := hetScenario(b, 30, 300)()
	for _, alg := range []string{"pso", "ga", "hybrid", "greedy", "minmin", "maxmin", "costpriority", "random"} {
		b.Run(alg, func(b *testing.B) { scheduleOnly(b, scenario, alg) })
	}
}

// --- Extension subsystems --------------------------------------------------------

func BenchmarkExtOnlinePolicies(b *testing.B) {
	type mk struct {
		name  string
		build func(rnd *rand.Rand) online.Scheduler
	}
	policies := []mk{
		{"rr", func(*rand.Rand) online.Scheduler { return online.NewRoundRobin() }},
		{"least", func(*rand.Rand) online.Scheduler { return online.NewLeastLoaded() }},
		{"eft", func(*rand.Rand) online.Scheduler { return online.NewEarliestFinish() }},
		{"aco", func(r *rand.Rand) online.Scheduler { return online.NewACO(r) }},
		{"hbo", func(r *rand.Rand) online.Scheduler { return online.NewHBO(r) }},
		{"rbs", func(r *rand.Rand) online.Scheduler { return online.NewRBS(r) }},
		{"2choice", func(r *rand.Rand) online.Scheduler { return online.NewTwoChoices(r) }},
	}
	for _, p := range policies {
		b.Run(p.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				scenario := hetScenario(b, 20, 200)()
				arrivals, err := workload.PoissonArrivals(200, 8, 42)
				if err != nil {
					b.Fatal(err)
				}
				policy := p.build(rand.New(rand.NewSource(1)))
				if _, err := online.Run(scenario.Env, policy, scenario.Cloudlets, arrivals, cloud.TimeSharedFactory); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkExtFailureRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		scenario := hetScenario(b, 10, 200)()
		eng := sim.NewEngine()
		broker := cloud.NewBroker(eng, scenario.Env, cloud.TimeSharedFactory)
		for j, c := range scenario.Cloudlets {
			broker.Submit(c, scenario.Env.VMs[j%10])
		}
		for v := 0; v < 3; v++ {
			if err := broker.FailVM(scenario.Env.VMs[v], float64(v+1), cloud.LeastLoadedFailover); err != nil {
				b.Fatal(err)
			}
		}
		eng.Run()
		if len(broker.Finished())+len(broker.Lost()) != 200 {
			b.Fatal("work unaccounted for")
		}
	}
}

func BenchmarkExtAutoscaler(b *testing.B) {
	for i := 0; i < b.N; i++ {
		scenario := homScenario(b, 4, 400)()
		eng := sim.NewEngine()
		broker := cloud.NewBroker(eng, scenario.Env, cloud.TimeSharedFactory)
		as, err := elastic.New(broker, elastic.Policy{
			ScaleUpLoad: 4, ScaleDownLoad: 1, Interval: 1, MinVMs: 2, MaxVMs: 32,
			Template: elastic.VMTemplate{MIPS: 1000, PEs: 1, RAM: 512, Bw: 500, Size: 5000},
		}, cloud.TimeSharedFactory, 1000)
		if err != nil {
			b.Fatal(err)
		}
		for j, c := range scenario.Cloudlets {
			broker.Submit(c, scenario.Env.VMs[j%4])
		}
		as.Start()
		eng.Run()
	}
}

func BenchmarkExtNetworkTopologyBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		topo := cloud.NewNetworkTopology()
		names := make([]string, 64)
		for j := range names {
			names[j] = fmt.Sprintf("n%d", j)
			topo.AddNode(names[j])
		}
		for j := 1; j < len(names); j++ {
			if err := topo.AddLink(names[j-1], names[j], 0.001, 1000); err != nil {
				b.Fatal(err)
			}
		}
		topo.Build()
		if d, _ := topo.Delay(names[0], names[63]); d <= 0 {
			b.Fatal("bad delay")
		}
	}
}

func BenchmarkExtHostEnergy(b *testing.B) {
	scenario := hetScenario(b, 20, 2000)()
	assignments, err := sched.NewRoundRobin().Schedule(scenario.Context())
	if err != nil {
		b.Fatal(err)
	}
	cls, vms := sched.Split(assignments)
	res, err := cloud.Execute(scenario.Env, cloud.TimeSharedFactory, cls, vms)
	if err != nil {
		b.Fatal(err)
	}
	model := cloud.LinearPower{Idle: 90, Max: 250}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cloud.HostEnergy(scenario.Env, res.Finished, model); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtDeadlineScheduler(b *testing.B) {
	scenario := hetScenario(b, 50, 500)()
	if err := workload.AssignDeadlines(scenario.Cloudlets, scenario.Env.VMs, 8); err != nil {
		b.Fatal(err)
	}
	s, err := sched.New("deadline")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Schedule(scenario.Context()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Objective-evaluation layer kernels ------------------------------------------

// BenchmarkObjectiveDense measures a full Eq. 8 evaluation against the
// materialized matrix on the heterogeneous fleet, where every VM is its own
// exec class (K = m, no compression).
func BenchmarkObjectiveDense(b *testing.B) {
	scenario := hetScenario(b, 50, 500)()
	ctx := scenario.Context()
	mx := objective.NewMatrix(ctx.Cloudlets, ctx.VMs, objective.Options{})
	rnd := rand.New(rand.NewSource(1))
	pos := make([]int, mx.N())
	for i := range pos {
		pos[i] = rnd.Intn(mx.M())
	}
	busy := make([]float64, mx.M())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if mx.MakespanOf(pos, busy) <= 0 {
			b.Fatal("bad makespan")
		}
	}
}

// BenchmarkObjectiveCompressed is the same evaluation on the homogeneous
// fleet, where the matrix compresses to a single VM class (K = 1).
func BenchmarkObjectiveCompressed(b *testing.B) {
	scenario := homScenario(b, 180, 2000)()
	ctx := scenario.Context()
	mx := objective.NewMatrix(ctx.Cloudlets, ctx.VMs, objective.Options{})
	if mx.K() != 1 {
		b.Fatalf("homogeneous fleet did not compress: K=%d", mx.K())
	}
	rnd := rand.New(rand.NewSource(1))
	pos := make([]int, mx.N())
	for i := range pos {
		pos[i] = rnd.Intn(mx.M())
	}
	busy := make([]float64, mx.M())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if mx.MakespanOf(pos, busy) <= 0 {
			b.Fatal("bad makespan")
		}
	}
}

// BenchmarkObjectiveDelta measures the O(1) single-cloudlet reassignment of
// the incremental Evaluator — the per-move cost inside metaheuristic loops,
// to be compared against the O(n+m) full evaluations above.
func BenchmarkObjectiveDelta(b *testing.B) {
	scenario := hetScenario(b, 50, 500)()
	ctx := scenario.Context()
	mx := objective.NewMatrix(ctx.Cloudlets, ctx.VMs, objective.Options{})
	rnd := rand.New(rand.NewSource(1))
	pos := make([]int, mx.N())
	for i := range pos {
		pos[i] = rnd.Intn(mx.M())
	}
	e := objective.NewEvaluator(mx, false)
	e.SetAll(pos)
	moves := make([][2]int, 4096)
	for k := range moves {
		moves[k] = [2]int{rnd.Intn(mx.N()), rnd.Intn(mx.M())}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mv := moves[i&4095]
		e.Move(mv[0], mv[1])
		if e.Makespan() <= 0 {
			b.Fatal("bad makespan")
		}
	}
}

// --- Metric kernels -------------------------------------------------------------

func BenchmarkMetricEq12SimulationTime(b *testing.B) {
	scenario := hetScenario(b, 20, 2000)()
	assignments, err := sched.NewRoundRobin().Schedule(scenario.Context())
	if err != nil {
		b.Fatal(err)
	}
	cls, vms := sched.Split(assignments)
	res, err := cloud.Execute(scenario.Env, cloud.TimeSharedFactory, cls, vms)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if metrics.SimulationTime(res.Finished) <= 0 {
			b.Fatal("bad sim time")
		}
	}
}

func BenchmarkMetricEq13TimeImbalance(b *testing.B) {
	scenario := hetScenario(b, 20, 2000)()
	assignments, err := sched.NewRoundRobin().Schedule(scenario.Context())
	if err != nil {
		b.Fatal(err)
	}
	cls, vms := sched.Split(assignments)
	res, err := cloud.Execute(scenario.Env, cloud.TimeSharedFactory, cls, vms)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if metrics.TimeImbalance(res.Finished) < 0 {
			b.Fatal("bad imbalance")
		}
	}
}
