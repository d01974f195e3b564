package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"reflect"

	"bioschedsim/internal/plan"
	"bioschedsim/internal/sched"
	"bioschedsim/internal/workload"
)

// goldenSeed is the seed whose outputs golden.json holds. Every run of a
// mix workload recomputes them, untimed, before measuring and
// fails one operation when they differ, so a change that speeds a layer up
// by computing something else cannot pass: the repeat checks inside a run
// only compare the code with itself. Regenerate the file with
//
//	go test -run TestGolden -update
//
// when outputs change on purpose.
const goldenSeed = 1

//go:embed golden.json
var goldenJSON []byte

// figureOut is one algorithm's figure point as recorded and compared: the
// paper's Eq. 12 and Eq. 13 and the DES event count.
type figureOut struct {
	Eq12   float64 `json:"eq12"`
	Eq13   float64 `json:"eq13"`
	Events uint64  `json:"events"`
}

// verdictOut is a plan verdict as recorded and compared: the minimum fleet
// and every probe's fleet, completed count and SLO-quantile latency.
type verdictOut struct {
	MinFleet  int       `json:"min_fleet"`
	Fleets    []int     `json:"fleets"`
	Counts    []uint64  `json:"counts"`
	Quantiles []float64 `json:"quantiles"`
}

// goldenFile is golden.json: the outputs at goldenSeed.
type goldenFile struct {
	Seed    uint64                          `json:"seed"`
	Offline map[string]map[string]figureOut `json:"offline"` // workload → algorithm →
	Plan    verdictOut                      `json:"plan"`
}

func loadGolden() (goldenFile, error) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return g, fmt.Errorf("golden.json: %w", err)
	}
	if g.Seed != goldenSeed {
		return g, fmt.Errorf("golden.json holds seed %d, want %d", g.Seed, goldenSeed)
	}
	return g, nil
}

func figuresOf(figs map[string]figure) map[string]figureOut {
	out := make(map[string]figureOut, len(figs))
	for alg, f := range figs {
		out[alg] = figureOut{Eq12: f.simTime, Eq13: f.imbalance, Events: f.events}
	}
	return out
}

func verdictOf(v *plan.Verdict) verdictOut {
	out := verdictOut{MinFleet: v.MinFleet}
	for _, p := range v.Probes {
		out.Fleets = append(out.Fleets, p.Fleet)
		out.Counts = append(out.Counts, p.Count)
		out.Quantiles = append(out.Quantiles, p.QuantileValue)
	}
	return out
}

// offlineFigures runs one figure point per algorithm at seed with fresh
// schedulers.
func offlineFigures(gen func(uint64) (*workload.Scenario, error), seed uint64) (map[string]figure, error) {
	figs := map[string]figure{}
	for _, alg := range algorithms {
		s, err := sched.New(alg)
		if err != nil {
			return nil, err
		}
		fig, _, err := figurePoint(nil, gen, seed, alg, s, nil)
		if err != nil {
			return nil, err
		}
		figs[alg] = fig
	}
	return figs, nil
}

// planVerdict parses the spec at seed and returns its verdict.
func planVerdict(seed uint64) (*plan.Spec, *plan.Verdict, error) {
	spec, err := newPlanSpec(seed)
	if err != nil {
		return nil, nil, err
	}
	v, err := plan.Plan(spec, nil)
	return spec, v, err
}

// checkGoldenOffline compares the figure points at goldenSeed with
// golden.json; figs are the run's own when it ran at goldenSeed.
func checkGoldenOffline(workloadName string, gen func(uint64) (*workload.Scenario, error), seed uint64, figs map[string]figure) error {
	g, err := loadGolden()
	if err != nil {
		return err
	}
	if seed != goldenSeed {
		if figs, err = offlineFigures(gen, goldenSeed); err != nil {
			return err
		}
	}
	if got, want := figuresOf(figs), g.Offline[workloadName]; !reflect.DeepEqual(got, want) {
		return fmt.Errorf("%s at seed %d gave figures %+v; golden.json holds %+v", workloadName, goldenSeed, got, want)
	}
	return nil
}

// checkGoldenPlan compares the verdict at goldenSeed with golden.json; v is
// the run's own when it ran at goldenSeed.
func checkGoldenPlan(seed uint64, v *plan.Verdict) error {
	g, err := loadGolden()
	if err != nil {
		return err
	}
	if seed != goldenSeed {
		if _, v, err = planVerdict(goldenSeed); err != nil {
			return err
		}
	}
	if got := verdictOf(v); !reflect.DeepEqual(got, g.Plan) {
		return fmt.Errorf("plan verdict at seed %d gave %+v; golden.json holds %+v", goldenSeed, got, g.Plan)
	}
	return nil
}
