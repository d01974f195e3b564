package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// lastJSON parses the last line of a run's standard output.
func lastJSON(t *testing.T, stdout string) (Output, map[string]any) {
	t.Helper()
	lines := strings.Split(strings.TrimRight(stdout, "\n"), "\n")
	var out Output
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&out); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	var record map[string]any
	for _, l := range lines {
		if rest, ok := strings.CutPrefix(l, "record "); ok {
			if err := json.Unmarshal([]byte(rest), &record); err != nil {
				t.Fatalf("record line: %v", err)
			}
		}
	}
	if record == nil {
		t.Fatal("no record line")
	}
	return out, record
}

func TestOutputRoundTrip(t *testing.T) {
	res := newResult("schedd-closed", runConfig{seed: 7, seconds: 1})
	res.timing("setup_s", "s", []float64{0.25, 0.5, 0.125})
	res.set("schedd.cloudlets_per_s", "1/s", 1.0/3)
	res.op(nil)
	res.op(errors.New("boom"))
	if err := res.complete(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.print(&buf); err != nil {
		t.Fatal(err)
	}
	out, record := lastJSON(t, buf.String())
	if !reflect.DeepEqual(out, res.out) {
		t.Errorf("round trip = %+v, want %+v", out, res.out)
	}
	if out.Correct || out.Attempted != 2 || out.Failed != 1 {
		t.Errorf("a failed operation must make the run incorrect: %+v", out)
	}
	if got := out.Metrics["schedd.cloudlets_per_s"].Value; got != 1.0/3 {
		t.Errorf("value lost digits: %v", got)
	}
	if record["failed_share"] != 0.5 || record["seed"] != 7.0 {
		t.Errorf("record = %v", record)
	}
	host := record["host"].(map[string]any)
	for _, k := range []string{"nproc", "gomaxprocs", "goamd64", "go", "commit"} {
		if _, ok := host[k]; !ok {
			t.Errorf("record host lacks %s", k)
		}
	}
	timings := record["timings"].(map[string]any)
	if s := timings["setup_s"].(map[string]any); s["n"] != 3.0 || s["median"] != 0.25 {
		t.Errorf("setup_s summary = %v", s)
	}
	if !strings.Contains(buf.String(), "FAILED: boom") {
		t.Error("failed check was not printed")
	}
}

func TestCompleteRejectsMissingAndExtraMetrics(t *testing.T) {
	res := newResult("schedd-closed", runConfig{})
	res.op(nil)
	res.set("setup_s", "s", 1)
	if err := res.complete(); err == nil {
		t.Error("a missing metric must be an error")
	}
	res.set("schedd.cloudlets_per_s", "1/s", 1)
	res.set("stray", "s", 1)
	if err := res.complete(); err == nil {
		t.Error("an undeclared metric must be an error")
	}
}

func TestBadArgumentsFailWithoutResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "fig6-het", "--trace", "2"},
		{"--workload", "fig6-het", "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}

// benchmarkJSON mirrors the file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, gatedWorkloads) {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, gatedWorkloads)
	}
	var e2e, layer []string
	for _, m := range b.EndToEnd {
		e2e = append(e2e, fmt.Sprintf("%s %s %s %g", m.Name, m.Unit, m.Better, m.Bound))
	}
	for _, m := range b.PerLayer {
		layer = append(layer, fmt.Sprintf("%s %s %s", m.Name, m.Unit, m.Better))
	}
	var wantE2E, wantLayer []string
	for _, m := range gated(endToEnd) {
		wantE2E = append(wantE2E, fmt.Sprintf("%s %s %s %g", m.Name, m.Unit, m.Better, m.Bound))
	}
	for _, m := range gated(perLayer) {
		wantLayer = append(wantLayer, fmt.Sprintf("%s %s %s", m.Name, m.Unit, m.Better))
	}
	if !reflect.DeepEqual(e2e, wantE2E) {
		t.Errorf("BENCHMARK.json end_to_end:\n%v\nregistry:\n%v", e2e, wantE2E)
	}
	if !reflect.DeepEqual(layer, wantLayer) {
		t.Errorf("BENCHMARK.json per_layer:\n%v\nregistry:\n%v", layer, wantLayer)
	}
}

// TestSmoke runs every workload briefly in both modes and checks that each
// declared metric is reported, and that each gated workload reports every
// gated metric. schedd-closed runs last: if the daemon stalls, its spinning
// executor outlives the run.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, wl := range []string{"fig6-het", "fig4-hom", "schedd-closed"} {
		for _, trace := range []string{"0", "1"} {
			t.Run(wl+"/trace="+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				spans := filepath.Join(t.TempDir(), "spans.jsonl")
				code := run([]string{"--workload", wl, "--seed", "3", "--seconds", "1", "--trace", trace, "--spans", spans}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				out, record := lastJSON(t, stdout.String())
				defs := metricsFor(wl, trace == "1")
				if contains(gatedWorkloads, wl) {
					all := gated(endToEnd)
					if trace == "1" {
						all = gated(perLayer)
					}
					if len(defs) != len(all) {
						t.Errorf("gated workload declares %d of the %d gated metrics", len(defs), len(all))
					}
				}
				for _, m := range defs {
					got, ok := out.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s missing or mis-united: %+v", m.Name, got)
					}
				}
				if len(out.Metrics) != len(defs) || out.Attempted < 1 {
					t.Errorf("%d metrics for %d declared, %d attempted", len(out.Metrics), len(defs), out.Attempted)
				}
				if wl != "schedd-closed" && (!out.Correct || out.Failed != 0) {
					t.Errorf("run not correct: %s", stdout.String())
				}
				if wl != "schedd-closed" && trace == "0" {
					// Each measured daemon round replays the trace exactly once.
					info := record["info"].(map[string]any)
					if got, want := info["schedd_accepted_cloudlets"], info["schedd_rounds"].(float64)*roundRows; got != want {
						t.Errorf("rounds accepted %v cloudlets, want %v", got, want)
					}
				}
				if trace == "1" {
					if _, err := os.Stat(spans); err != nil {
						t.Errorf("no span file: %v", err)
					}
				}
			})
		}
	}
}

func TestREADMENamesEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		forms := []string{m.Name}
		for _, alg := range algorithms {
			if base, ok := strings.CutSuffix(m.Name, "."+alg); ok {
				forms = append(forms, base+".<alg>")
			}
		}
		if strings.HasPrefix(m.Name, "trace.overhead.") {
			forms = append(forms, "trace.overhead.<metric>")
		}
		found := false
		for _, f := range forms {
			found = found || strings.Contains(text, "`"+f+"`")
		}
		if !found {
			t.Errorf("README.md does not name %s", m.Name)
		}
	}
}
