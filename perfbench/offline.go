package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"bioschedsim/internal/cloud"
	"bioschedsim/internal/metrics"
	"bioschedsim/internal/objective"
	"bioschedsim/internal/sched"
	"bioschedsim/internal/workload"

	_ "bioschedsim/internal/experiments" // registers every scheduler
)

// Offline workload sizes. fig6-het gives every VM its own exec class
// (K = m), so the class matrix and ACO's roulette carry the time; fig4-hom
// compresses the fleet to K = 1, so generation and DES execution carry it.
const (
	hetVMs, hetCloudlets, hetDCs = 500, 5000, 4
	homVMs, homCloudlets         = 250, 25000
)

// hetScenario and homScenario generate the two paper scenarios the mix
// workloads are named after.
func hetScenario(seed uint64) (*workload.Scenario, error) {
	return workload.Heterogeneous(hetVMs, hetCloudlets, hetDCs, seed)
}

func homScenario(seed uint64) (*workload.Scenario, error) {
	return workload.Homogeneous(homVMs, homCloudlets, seed)
}

// figure is the checked outcome of one figure point: the paper's Eq. 12
// and Eq. 13, which must repeat bit for bit for the same seed, and the DES
// event count.
type figure struct {
	simTime   float64
	imbalance float64
	events    uint64
}

// offlineSamples collects one phase's timings and counts.
type offlineSamples struct {
	run, sched, allocs map[string][]float64
	events             map[string]uint64
	rounds             int
	gcCycles           uint32
	classes            int // K of the standalone class matrix
}

func newOfflineSamples() *offlineSamples {
	return &offlineSamples{
		run: map[string][]float64{}, sched: map[string][]float64{},
		allocs: map[string][]float64{}, events: map[string]uint64{},
	}
}

// offlinePart measures figure points — generate, Schedule,
// ValidateAssignments, Execute, Collect — for every paper algorithm, round
// after round on the same seed.
type offlinePart struct {
	gen        func(uint64) (*workload.Scenario, error)
	seed       uint64
	scenario   *workload.Scenario
	schedulers map[string]sched.Scheduler
	ref        map[string]figure // warm-up figures every round must repeat
}

// newOfflinePart sets the part up, runs the warm-up round that fills caches
// and fixes the reference figures, and checks them against golden.json. It
// returns the part and its set-up seconds.
func newOfflinePart(name string, gen func(uint64) (*workload.Scenario, error), seed uint64, res *Result) (*offlinePart, float64, error) {
	p := &offlinePart{gen: gen, seed: seed}
	var setup float64
	var err error
	if p.scenario, p.schedulers, setup, err = p.build(); err != nil {
		return nil, 0, err
	}
	res.info["scenario"] = p.scenario.Name
	p.ref = map[string]figure{}
	for _, alg := range algorithms {
		fig, _, err := figurePoint(nil, gen, seed, alg, p.schedulers[alg], nil)
		res.op(err)
		if err != nil {
			return nil, 0, fmt.Errorf("warm-up %s: %w", alg, err)
		}
		p.ref[alg] = fig
	}
	res.info["figures"] = figuresOf(p.ref)
	res.op(checkGoldenOffline(name, gen, seed, p.ref))
	return p, setup, nil
}

// build generates the scenario and a scheduler per algorithm and returns
// its seconds.
func (p *offlinePart) build() (*workload.Scenario, map[string]sched.Scheduler, float64, error) {
	start := time.Now()
	s, err := p.gen(p.seed)
	if err != nil {
		return nil, nil, 0, err
	}
	m := make(map[string]sched.Scheduler, len(algorithms))
	for _, alg := range algorithms {
		if m[alg], err = sched.New(alg); err != nil {
			return nil, nil, 0, err
		}
	}
	return s, m, time.Since(start).Seconds(), nil
}

// setUp repeats the set-up, discarding what it builds, and returns its
// seconds.
func (p *offlinePart) setUp() (float64, error) {
	_, _, d, err := p.build()
	return d, err
}

// round runs one figure point per algorithm into ps. A traced round also
// records each point's allocated bytes and GC cycles, and times a
// standalone class-matrix build of the scenario.
func (p *offlinePart) round(res *Result, tr *Tracer, ps *offlineSamples) {
	ps.rounds++
	for _, alg := range algorithms {
		var before, after runtime.MemStats
		if tr != nil {
			runtime.ReadMemStats(&before)
		}
		fig, t, err := figurePoint(tr, p.gen, p.seed, alg, p.schedulers[alg], p.ref)
		if tr != nil {
			runtime.ReadMemStats(&after)
			ps.allocs[alg] = append(ps.allocs[alg], float64(after.TotalAlloc-before.TotalAlloc))
			ps.gcCycles += after.NumGC - before.NumGC
		}
		res.op(err)
		if err != nil {
			continue
		}
		ps.run[alg] = append(ps.run[alg], t.run)
		ps.sched[alg] = append(ps.sched[alg], t.sched)
		ps.events[alg] = fig.events
	}
	if tr != nil {
		run := tr.NewRun()
		sp := tr.Begin(run, -1, "objective.matrix_build")
		mx := objective.NewMatrix(p.scenario.Cloudlets, p.scenario.Env.VMs, objective.Options{})
		tr.End(run, sp)
		tr.FinishRun(run)
		ps.classes = mx.K()
	}
}

// reportEndToEnd reports run_s.<alg> and sched_s.<alg>.
func (ps *offlineSamples) reportEndToEnd(res *Result) {
	for _, alg := range algorithms {
		res.timing("run_s."+alg, "s", ps.run[alg])
		res.timing("sched_s."+alg, "s", ps.sched[alg])
	}
}

// reportLayers reports the offline per-layer metrics of a traced phase and
// the tracing overhead against the untraced phase plain.
func (ps *offlineSamples) reportLayers(res *Result, tr *Tracer, plain *offlineSamples) {
	res.timing("workload.generate_s", "s", tr.Self("workload.generate"))
	res.timing("objective.matrix_build_s", "s", tr.Self("objective.matrix_build"))
	res.timing("metrics.collect_s", "s", tr.Self("metrics.collect"))
	res.set("objective.classes", "count", float64(ps.classes))
	for _, alg := range algorithms {
		res.timing("cloud.execute_s."+alg, "s", tr.Self("cloud.execute."+alg))
		res.set("sim.events."+alg, "count", float64(ps.events[alg]))
		res.timing("alloc_bytes."+alg, "bytes", ps.allocs[alg])
		overhead(res, "run_s."+alg, ps.run[alg], plain.run[alg])
		overhead(res, "sched_s."+alg, ps.sched[alg], plain.sched[alg])
	}
	res.set("gc.cycles", "count", float64(ps.gcCycles)/float64(ps.rounds))
}

// maxKeptSpans caps the span file of a traced run.
const maxKeptSpans = 200000

// overhead reports trace.overhead.<name>: the traced minus the untraced
// median of an end-to-end timing.
func overhead(res *Result, name string, traced, plain []float64) {
	if len(traced) == 0 || len(plain) == 0 {
		return
	}
	res.set("trace.overhead."+name, unitOf(name), Summarize(traced).Median-Summarize(plain).Median)
}

// pointTimes are the wall-clock seconds of one figure point and of its
// Schedule call.
type pointTimes struct{ run, sched float64 }

// figurePoint runs one algorithm's figure point end to end and checks it:
// the assignment is valid, every cloudlet finishes, and when ref is given,
// Eq. 12 and Eq. 13 equal the reference bit for bit.
func figurePoint(tr *Tracer, gen func(uint64) (*workload.Scenario, error), seed uint64, alg string, s sched.Scheduler, ref map[string]figure) (figure, pointTimes, error) {
	var t pointTimes
	run := tr.NewRun()
	root := tr.Begin(run, -1, "fig.point."+alg)
	defer tr.FinishRun(run)
	start := time.Now()

	sp := tr.Begin(run, root, "workload.generate")
	scenario, err := gen(seed)
	tr.End(run, sp)
	if err != nil {
		return figure{}, t, err
	}
	ctx := scenario.Context()

	sp = tr.Begin(run, root, "sched.schedule."+alg)
	schedStart := time.Now()
	assignments, err := s.Schedule(ctx)
	schedTime := time.Since(schedStart)
	tr.End(run, sp)
	if err != nil {
		return figure{}, t, fmt.Errorf("%s: Schedule: %w", alg, err)
	}

	sp = tr.Begin(run, root, "sched.validate")
	err = sched.ValidateAssignments(ctx, assignments)
	tr.End(run, sp)
	if err != nil {
		return figure{}, t, fmt.Errorf("%s: %w", alg, err)
	}
	cls, vms := sched.Split(assignments)

	sp = tr.Begin(run, root, "cloud.execute."+alg)
	result, err := cloud.Execute(scenario.Env, cloud.TimeSharedFactory, cls, vms)
	tr.End(run, sp)
	if err != nil {
		return figure{}, t, fmt.Errorf("%s: Execute: %w", alg, err)
	}

	sp = tr.Begin(run, root, "metrics.collect")
	rep := metrics.Collect(alg, result.Finished, scenario.Env.VMs, schedTime)
	tr.End(run, sp)
	t = pointTimes{run: time.Since(start).Seconds(), sched: schedTime.Seconds()}
	tr.End(run, root)

	if rep.Cloudlets != len(scenario.Cloudlets) {
		return figure{}, t, fmt.Errorf("%s: %d of %d cloudlets finished", alg, rep.Cloudlets, len(scenario.Cloudlets))
	}
	fig := figure{simTime: float64(rep.SimTime), imbalance: rep.Imbalance, events: result.EngineEvents}
	if ref != nil {
		want := ref[alg]
		if math.Float64bits(fig.simTime) != math.Float64bits(want.simTime) ||
			math.Float64bits(fig.imbalance) != math.Float64bits(want.imbalance) ||
			fig.events != want.events {
			return fig, t, fmt.Errorf("%s: seed %d repeated to Eq.12 %v, Eq.13 %v, %d events; first run gave %v, %v, %d",
				alg, seed, fig.simTime, fig.imbalance, fig.events, want.simTime, want.imbalance, want.events)
		}
	}
	return fig, t, nil
}
