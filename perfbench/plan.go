package main

import (
	"encoding/json"
	"fmt"
	"math"
	"time"

	"bioschedsim/internal/plan"
)

// The plan part asks internal/plan for the smallest homogeneous fleet that
// holds a p99 latency SLO under bursty MMPP arrivals with central-queue
// dispatch. The search spans [planMinVMs, planMaxVMs], so a verdict takes
// one bracketing probe plus about eight bisection probes.
const (
	planCloudlets = 40000
	planWarmup    = 4000
	planMinVMs    = 1
	planMaxVMs    = 256
)

// planSpecJSON renders the verdict's spec as the file a user would write.
func planSpecJSON(seed uint64) ([]byte, error) {
	return json.Marshal(map[string]any{
		"name": "perfbench-mmpp",
		"workload": map[string]any{
			"process": "mmpp", "rate_a": 80.0, "rate_b": 30.0, "sojourn_a": 20.0, "sojourn_b": 20.0,
			"cloudlets": planCloudlets, "warmup": planWarmup, "mean_length_mi": 1000.0,
		},
		"fleet": map[string]any{
			"vm_mips": 1000.0, "vm_pes": 1, "min_vms": planMinVMs, "max_vms": planMaxVMs, "dispatch": plan.DispatchQueue,
		},
		"slo":  map[string]any{"quantile": 0.99, "target_seconds": 5.0},
		"seed": seed,
	})
}

// newPlanSpec parses the spec and warms the engine with one run at the
// largest fleet, which must meet the SLO for the verdict to be sustainable.
func newPlanSpec(seed uint64) (*plan.Spec, error) {
	raw, err := planSpecJSON(seed)
	if err != nil {
		return nil, err
	}
	spec, err := plan.ParseSpec(raw)
	if err != nil {
		return nil, err
	}
	r, err := plan.Run(spec, spec.Fleet.MaxVMs, nil)
	if err != nil {
		return nil, err
	}
	if !r.SLOMet(spec) {
		return nil, fmt.Errorf("spec misses its SLO even at %d VMs", spec.Fleet.MaxVMs)
	}
	return spec, nil
}

// planPart measures plan verdicts, one per round, each repeated probe for
// probe against the first.
type planPart struct {
	seed uint64
	spec *plan.Spec
	ref  *plan.Verdict // first verdict, re-derived and checked against golden.json
}

// newPlanPart sets the part up and checks its first verdict. It returns the
// part and its set-up seconds.
func newPlanPart(seed uint64, res *Result) (*planPart, float64, error) {
	p := &planPart{seed: seed}
	start := time.Now()
	var err error
	if p.spec, err = newPlanSpec(seed); err != nil {
		return nil, 0, err
	}
	setup := time.Since(start).Seconds()
	if p.ref, err = plan.Plan(p.spec, nil); err != nil {
		return nil, 0, err
	}
	res.op(rederive(p.spec, p.ref, nil, nil))
	res.info["verdict"] = verdictOf(p.ref)
	res.op(checkGoldenPlan(seed, p.ref))
	return p, setup, nil
}

// setUp parses and warms the spec once, discarding it, and returns its
// seconds.
func (p *planPart) setUp() (float64, error) {
	start := time.Now()
	_, err := newPlanSpec(p.seed)
	return time.Since(start).Seconds(), err
}

// round runs one verdict and appends its seconds to verdicts. A traced
// round also re-derives the verdict.
func (p *planPart) round(res *Result, tr *Tracer, verdicts *[]float64) {
	run := tr.NewRun()
	sp := tr.Begin(run, -1, "plan.plan")
	start := time.Now()
	v, err := plan.Plan(p.spec, nil)
	elapsed := time.Since(start).Seconds()
	tr.End(run, sp)
	tr.FinishRun(run)
	if err == nil {
		err = sameVerdict(v, p.ref)
	}
	if err == nil && tr != nil {
		err = rederive(p.spec, v, tr, res)
	}
	res.op(err)
	if err == nil {
		*verdicts = append(*verdicts, elapsed)
	}
}

// reportLayers reports the planner's per-layer metrics of a traced
// phase and the tracing overhead against the untraced verdicts plain.
func (p *planPart) reportLayers(res *Result, tr *Tracer, traced, plain []float64) {
	res.timing("workload.arrivals_s", "s", tr.Self("workload.arrivals"))
	res.timing("plan.run_s", "s", tr.Self("plan.run"))
	res.set("plan.probes", "count", float64(len(p.ref.Probes)))
	overhead(res, "plan.verdict_s", traced, plain)
}

// sameVerdict checks that a repeated verdict equals the reference probe
// for probe, bit for bit.
func sameVerdict(v, ref *plan.Verdict) error {
	if v.MinFleet != ref.MinFleet || v.Sustainable != ref.Sustainable || len(v.Probes) != len(ref.Probes) {
		return fmt.Errorf("verdict repeated to min fleet %d in %d probes; first gave %d in %d",
			v.MinFleet, len(v.Probes), ref.MinFleet, len(ref.Probes))
	}
	for i, p := range v.Probes {
		q := ref.Probes[i]
		if p.Fleet != q.Fleet || p.Count != q.Count || p.Met != q.Met ||
			math.Float64bits(p.QuantileValue) != math.Float64bits(q.QuantileValue) {
			return fmt.Errorf("probe %d repeated as %+v; first gave %+v", i, p, q)
		}
	}
	return nil
}

// rederive re-checks a verdict outside the search: MinFleet meets the SLO
// and MinFleet-1 (when inside the bounds) misses it, both through plan.Run.
// A traced call also times the standalone arrival generation and records
// the event count of the MinFleet run.
func rederive(spec *plan.Spec, v *plan.Verdict, tr *Tracer, res *Result) error {
	if !v.Sustainable || v.MinFleet < spec.Fleet.MinVMs {
		return fmt.Errorf("verdict not sustainable: %+v", v.Probes)
	}
	run := tr.NewRun()
	defer tr.FinishRun(run)
	sp := tr.Begin(run, -1, "workload.arrivals")
	proc, err := spec.Workload.Arrivals()
	if err == nil {
		_, err = proc.Offsets(spec.Workload.Cloudlets, spec.Seed)
	}
	tr.End(run, sp)
	if err != nil {
		return err
	}

	sp = tr.Begin(run, -1, "plan.run")
	at, err := plan.Run(spec, v.MinFleet, nil)
	tr.End(run, sp)
	if err != nil {
		return err
	}
	if !at.SLOMet(spec) {
		return fmt.Errorf("min fleet %d misses the SLO when re-run: p%g = %v s", v.MinFleet, spec.SLO.Quantile*100, at.SLOValue(spec))
	}
	if res != nil {
		res.set("sim.events.plan", "count", float64(at.EngineEvents))
	}
	if v.MinFleet == spec.Fleet.MinVMs {
		return nil
	}
	sp = tr.Begin(run, -1, "plan.run")
	below, err := plan.Run(spec, v.MinFleet-1, nil)
	tr.End(run, sp)
	if err != nil {
		return err
	}
	if below.SLOMet(spec) {
		return fmt.Errorf("fleet %d below the min fleet %d also meets the SLO: p%g = %v s",
			v.MinFleet-1, v.MinFleet, spec.SLO.Quantile*100, below.SLOValue(spec))
	}
	return nil
}
