package main

import (
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"testing"

	"bioschedsim/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden.json from the current code")

// TestGolden recomputes every output golden.json holds.
func TestGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the offline scenarios and a plan verdict")
	}
	g := goldenFile{Seed: goldenSeed, Offline: map[string]map[string]figureOut{}}
	gens := map[string]func(uint64) (*workload.Scenario, error){
		"fig6-het": hetScenario,
		"fig4-hom": homScenario,
	}
	for name, gen := range gens {
		figs, err := offlineFigures(gen, goldenSeed)
		if err != nil {
			t.Fatal(err)
		}
		g.Offline[name] = figuresOf(figs)
	}
	_, v, err := planVerdict(goldenSeed)
	if err != nil {
		t.Fatal(err)
	}
	g.Plan = verdictOf(v)

	if *update {
		raw, err := json.MarshalIndent(g, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("golden.json", append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g, want) {
		t.Errorf("outputs at seed %d:\n%+v\ngolden.json:\n%+v", goldenSeed, g, want)
	}
}
