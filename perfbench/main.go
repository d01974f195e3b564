// Command perfbench is bioschedsim's benchmark: one seeded workload per
// run, timed only around calls into the public functions of the layers,
// with every output checked. The gated workloads, fig6-het and fig4-hom,
// each run the paper pipeline on their scenario, a schedd round and a plan
// verdict, so every run reports every end-to-end metric.
//
//	perfbench --workload fig6-het --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of an untraced run. With
// --trace 1 it runs the workload untraced for half the time and traced for
// the other half, prints the per-layer metrics derived from the spans and
// the tracing overhead (traced minus untraced end-to-end figures), and
// writes the spans to --spans. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. Each
// preceding line is human-readable, except the line starting "record ",
// which holds the host, the seed, every timing's median, tail percentile
// and sample count, and the failed checks.
//
// See README.md for the workloads and what each per-layer metric should
// move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// runConfig is what every workload receives from the command line.
type runConfig struct {
	seed    uint64
	seconds float64
	trace   bool
	spans   string // span file written by a traced run
}

// workloadFunc runs one workload into res. An error means the workload
// could not be set up or measured at all; failed operations and checks are
// recorded in res instead.
type workloadFunc func(cfg runConfig, res *Result) error

var workloads = map[string]workloadFunc{
	"fig6-het":      runFig6Het,
	"fig4-hom":      runFig4Hom,
	"schedd-closed": runScheddClosed,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name: fig6-het, fig4-hom or schedd-closed")
	seed := fs.Uint64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 30, "measured seconds")
	trace := fs.Int("trace", 0, "1 = traced run printing per-layer metrics, 0 = untraced run printing end-to-end metrics")
	spans := fs.String("spans", "", "span file of a traced run (default .bench_build/spans-<workload>-<seed>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || !(*seconds > 0) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %v), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, spans: *spans}
	if cfg.trace && cfg.spans == "" {
		cfg.spans = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", *name, *seed))
	}
	res := newResult(*name, cfg)
	if err := wl(cfg, res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if err := res.complete(); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if err := res.print(stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Metric is one reported figure.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Output is the last line of standard output.
type Output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// maxFailureNotes bounds how many failed-check messages a record keeps.
const maxFailureNotes = 20

// Result accumulates one run's metrics, timings and checks.
type Result struct {
	workload string
	cfg      runConfig
	out      Output
	timings  map[string]Summary
	info     map[string]any
	failures []string
}

func newResult(workload string, cfg runConfig) *Result {
	return &Result{
		workload: workload,
		cfg:      cfg,
		out:      Output{Correct: true, Metrics: map[string]Metric{}},
		timings:  map[string]Summary{},
		info:     map[string]any{},
	}
}

// op counts one attempted operation; a non-nil err marks it failed.
func (r *Result) op(err error) {
	r.out.Attempted++
	if err != nil {
		r.out.Failed++
		r.note(err)
	}
}

// check records a whole-run check; a non-nil err makes the run incorrect
// without being tied to one operation.
func (r *Result) check(err error) {
	if err != nil {
		r.out.Correct = false
		r.note(err)
	}
}

func (r *Result) note(err error) {
	if len(r.failures) < maxFailureNotes {
		r.failures = append(r.failures, err.Error())
	}
}

// set reports a metric value.
func (r *Result) set(name, unit string, v float64) {
	r.out.Metrics[name] = Metric{Value: v, Unit: unit}
}

// timing reports the median of samples as name and keeps its summary for
// the record. With no samples the metric is left out, which complete
// reports as an error.
func (r *Result) timing(name, unit string, samples []float64) {
	if len(samples) == 0 {
		return
	}
	s := Summarize(samples)
	r.timings[name] = s
	r.set(name, unit, s.Median)
}

// complete checks that the run produced exactly the metrics its workload
// and mode declare, and settles correctness.
func (r *Result) complete() error {
	want := metricsFor(r.workload, r.cfg.trace)
	for _, m := range want {
		got, ok := r.out.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.Name)
		}
		if got.Unit != m.Unit {
			return fmt.Errorf("metric %s has unit %s, want %s", m.Name, got.Unit, m.Unit)
		}
	}
	if len(r.out.Metrics) != len(want) {
		return fmt.Errorf("run reported %d metrics, its workload declares %d", len(r.out.Metrics), len(want))
	}
	if r.out.Attempted < 1 {
		return fmt.Errorf("no operation was attempted")
	}
	if r.out.Failed > 0 {
		r.out.Correct = false
	}
	return nil
}

// print writes the human-readable lines, the record line and the result.
func (r *Result) print(w io.Writer) error {
	for _, m := range metricsFor(r.workload, r.cfg.trace) {
		v := r.out.Metrics[m.Name]
		line := fmt.Sprintf("%-34s %14.6g %-6s", m.Name, v.Value, v.Unit)
		if s, ok := r.timings[m.Name]; ok {
			line += fmt.Sprintf("  n=%d", s.Count)
			if s.Pct > 0 {
				line += fmt.Sprintf(" p%d=%.6g", s.Pct, s.Tail)
			}
		}
		fmt.Fprintln(w, line)
	}
	share := float64(r.out.Failed) / float64(r.out.Attempted)
	fmt.Fprintf(w, "%-34s %14.6g %-6s  (%d of %d operations)\n", "failed_share", share, "ratio", r.out.Failed, r.out.Attempted)
	for _, f := range r.failures {
		fmt.Fprintln(w, "FAILED:", f)
	}
	record := map[string]any{
		"workload":     r.workload,
		"seed":         r.cfg.seed,
		"seconds":      r.cfg.seconds,
		"trace":        r.cfg.trace,
		"host":         hostInfo(),
		"timings":      r.timings,
		"failed_share": share,
		"failures":     r.failures,
		"info":         r.info,
	}
	rec, err := json.Marshal(record)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "record %s\n", rec)
	last, err := json.Marshal(r.out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", last)
	return err
}

// until returns the time seconds from now.
func until(seconds float64) time.Time {
	return time.Now().Add(time.Duration(seconds * float64(time.Second)))
}
