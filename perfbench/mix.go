package main

import (
	"time"

	"bioschedsim/internal/workload"
)

// A mix workload measures every gated layer on one seed, so that each of
// its runs reports every end-to-end metric. One mix round runs, in order:
// one figure point per paper algorithm on the workload's scenario
// (offlinePart), one daemon round (roundsPart) and one plan verdict
// (planPart). The two mix workloads differ in their scenario: fig6-het
// uses the heterogeneous one (K = m), fig4-hom the homogeneous one
// (K = 1). The daemon round and the plan verdict are the same in both.
//
// Set-up — generating the scenario and the schedulers, building the
// daemon's trace, parsing and warming the plan spec — is timed once before
// measuring and, in an untraced run, again after every mix round, so that
// setup_s, the median, is sampled across the whole run.

func runFig6Het(cfg runConfig, res *Result) error { return runMix(cfg, res, "fig6-het", hetScenario) }
func runFig4Hom(cfg runConfig, res *Result) error { return runMix(cfg, res, "fig4-hom", homScenario) }

// mixSamples is what one phase of mix rounds measured.
type mixSamples struct {
	rounds   int
	offline  *offlineSamples
	schedd   *roundStats
	verdicts []float64
}

func runMix(cfg runConfig, res *Result, name string, gen func(uint64) (*workload.Scenario, error)) error {
	off, offSetup, err := newOfflinePart(name, gen, cfg.seed, res)
	if err != nil {
		return err
	}
	rp, roundsSetup, err := newRoundsPart(cfg.seed, res)
	if err != nil {
		return err
	}
	pp, planSetup, err := newPlanPart(cfg.seed, res)
	if err != nil {
		return err
	}
	setups := []float64{offSetup + roundsSetup + planSetup}
	setUp := func() (float64, error) {
		total := 0.0
		for _, f := range []func() (float64, error){off.setUp, rp.setUp, pp.setUp} {
			d, err := f()
			if err != nil {
				return 0, err
			}
			total += d
		}
		return total, nil
	}

	phase := func(seconds float64, tr *Tracer) (*mixSamples, error) {
		ms := &mixSamples{offline: newOfflineSamples(), schedd: &roundStats{}}
		end := until(seconds)
		for ms.rounds == 0 || time.Now().Before(end) {
			ms.rounds++
			off.round(res, tr, ms.offline)
			if err := rp.round(res, tr, ms.schedd); err != nil {
				return ms, err
			}
			pp.round(res, tr, &ms.verdicts)
			if tr != nil {
				continue
			}
			if d, err := setUp(); err != nil {
				res.check(err)
			} else {
				setups = append(setups, d)
			}
		}
		return ms, nil
	}

	if !cfg.trace {
		ms, err := phase(cfg.seconds, nil)
		if err != nil {
			return err
		}
		res.timing("setup_s", "s", setups)
		ms.offline.reportEndToEnd(res)
		res.timing("schedd.round_s", "s", ms.schedd.times)
		res.timing("plan.verdict_s", "s", ms.verdicts)
		res.info["mix_rounds"] = ms.rounds
		ms.schedd.describe(res, "schedd_")
		return nil
	}

	plain, err := phase(cfg.seconds/2, nil)
	if err != nil {
		return err
	}
	plain.schedd.describe(res, "untraced_schedd_")
	tr := NewTracer(maxKeptSpans)
	traced, err := phase(cfg.seconds/2, tr)
	if err != nil {
		return err
	}
	tr.Close()
	traced.schedd.describe(res, "schedd_")
	res.info["mix_rounds"] = map[string]int{"untraced": plain.rounds, "traced": traced.rounds}
	traced.offline.reportLayers(res, tr, plain.offline)
	traced.schedd.reportLayers(res, tr, plain.schedd)
	pp.reportLayers(res, tr, traced.verdicts, plain.verdicts)
	return tr.WriteFile(cfg.spans)
}
