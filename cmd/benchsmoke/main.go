// Command benchsmoke parses `go test -bench` output for the worker-count
// scaling benchmarks (bench_parallel_test.go) and either gates on the
// serial-vs-parallel comparison or emits a BENCH_parallel.json record.
//
// Usage:
//
//	go test . -run xxx -bench ParallelFig -benchtime 200ms | benchsmoke -gate
//	go test . -run xxx -bench Parallel | benchsmoke -json BENCH_parallel.json
//
// The gate fails when any benchmark family's best parallel run (minimum
// ns/op over workers > 1) is more than -max-slowdown times its workers=1
// run — a real serialization bug slows every width, while one noisy sample
// cannot trip the smoke. Only large configs are gated: families whose
// serial run is under -min-serial-ns are micro-scale and noise-dominated
// at smoke benchtimes, so they are reported but not judged. On a
// single-core host a parallel pool cannot beat serial, so the gate only
// bounds overhead there and says so; on multicore it doubles as a scaling
// regression tripwire.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// benchLine matches one result line of `go test -bench` output, e.g.
//
//	BenchmarkParallelFig5a/aco/workers-1-4   529   98729 ns/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+([0-9.]+) ns/op`)

// result is one parsed benchmark line.
type result struct {
	Name    string  // normalized: trailing -GOMAXPROCS suffix stripped
	NsPerOp float64 `json:"ns_op"`
}

// environment echoes the header lines of the bench output plus toolchain
// facts, so the JSON record is self-describing.
type environment struct {
	Goos   string `json:"goos"`
	Goarch string `json:"goarch"`
	CPU    string `json:"cpu"`
	Cores  int    `json:"cores"`
	Go     string `json:"go"`
}

// curve is the worker-count sweep of one benchmark family
// (e.g. BenchmarkParallelFig5a/aco).
type curve struct {
	Family  string
	NsPerOp map[int]float64 // workers -> ns/op
}

// parseBench reads `go test -bench` output, returning normalized results
// and whatever environment header lines were present.
func parseBench(r io.Reader) ([]result, environment, error) {
	env := environment{Cores: runtime.GOMAXPROCS(0), Go: runtime.Version()}
	var out []result
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos:"):
			env.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			env.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			env.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return nil, env, fmt.Errorf("bad ns/op in %q: %v", line, err)
		}
		out = append(out, result{Name: normalizeName(m[1]), NsPerOp: ns})
	}
	return out, env, sc.Err()
}

// gomaxprocsSuffix is the "-N" the bench runner appends to every name —
// but only when GOMAXPROCS != 1, so a trailing "-N" on a workers-K leaf is
// ambiguous and must be resolved against the leaf shape: "workers-1" on a
// single-core host has no suffix to strip, "workers-1-4" does.
var (
	gomaxprocsSuffix      = regexp.MustCompile(`-\d+$`)
	workersLeafWithSuffix = regexp.MustCompile(`(workers-\d+)-\d+$`)
	workersLeafNoSuffix   = regexp.MustCompile(`workers-\d+$`)
)

func normalizeName(name string) string {
	if loc := workersLeafWithSuffix.FindStringSubmatchIndex(name); loc != nil {
		return name[:loc[3]] // end of the workers-K group
	}
	if workersLeafNoSuffix.MatchString(name) {
		return name
	}
	return gomaxprocsSuffix.ReplaceAllString(name, "")
}

// workersRun splits a normalized name into its family and worker count;
// ok is false for benchmarks without a /workers-K leaf. A trailing
// /kernel=on|off sub-benchmark (the objective-kernel dispatch dimension)
// is folded into the family, so each kernel mode forms its own curve;
// a kernel segment ahead of the workers leaf lands in the family via the
// greedy prefix match without any special casing.
var workersLeaf = regexp.MustCompile(`^(.+)/workers-(\d+)(/kernel=(?:on|off))?$`)

func workersRun(name string) (family string, workers int, ok bool) {
	m := workersLeaf.FindStringSubmatch(name)
	if m == nil {
		return "", 0, false
	}
	w, err := strconv.Atoi(m[2])
	if err != nil {
		return "", 0, false
	}
	return m[1] + m[3], w, true
}

// buildCurves groups /workers-K results into per-family sweeps, sorted by
// family name for stable output. Later duplicates overwrite earlier ones
// (go test repeats lines under -count).
func buildCurves(results []result) []curve {
	byFamily := map[string]map[int]float64{}
	for _, r := range results {
		family, w, ok := workersRun(r.Name)
		if !ok {
			continue
		}
		if byFamily[family] == nil {
			byFamily[family] = map[int]float64{}
		}
		byFamily[family][w] = r.NsPerOp
	}
	families := make([]string, 0, len(byFamily))
	for f := range byFamily {
		families = append(families, f)
	}
	sort.Strings(families)
	out := make([]curve, 0, len(families))
	for _, f := range families {
		out = append(out, curve{Family: f, NsPerOp: byFamily[f]})
	}
	return out
}

// widest returns the largest worker count in the curve.
func (c curve) widest() int {
	max := 0
	for w := range c.NsPerOp {
		if w > max {
			max = w
		}
	}
	return max
}

// gate compares each family's best parallel run (minimum ns/op over all
// workers > 1) against its workers=1 run. A genuine serialization
// regression slows every pool width, so the best-width comparison keeps
// full detection power while a single noisy sample at one width — routine
// at smoke benchtimes on micro-scale benches — cannot fail the gate. It
// returns one violation string per family whose best parallel run exceeds
// maxSlowdown x serial, and a note when the comparison is vacuous
// (single-core host, so only overhead is bounded). Families whose serial
// run is under minSerialNs are skipped — the per-op time is too small for
// a smoke benchtime to separate real regressions from timer noise — and
// counted in skipped.
func gate(curves []curve, maxSlowdown float64, cores int, minSerialNs float64) (violations []string, note string, skipped int) {
	if cores == 1 {
		note = "GOMAXPROCS=1: parallel pools cannot beat serial here; gating only bounds pool overhead"
	}
	for _, c := range curves {
		serial, ok := c.NsPerOp[1]
		if !ok || serial <= 0 {
			violations = append(violations, fmt.Sprintf("%s: no workers-1 baseline in input", c.Family))
			continue
		}
		if serial < minSerialNs {
			skipped++
			continue
		}
		bestW, bestNs := 0, 0.0
		for w, ns := range c.NsPerOp {
			if w > 1 && (bestW == 0 || ns < bestNs) {
				bestW, bestNs = w, ns
			}
		}
		if bestW == 0 {
			continue
		}
		if ratio := bestNs / serial; ratio > maxSlowdown {
			violations = append(violations,
				fmt.Sprintf("%s: every parallel width is slower than workers-1; best is workers-%d at %.2fx (%.0f vs %.0f ns/op, limit %.2fx)",
					c.Family, bestW, ratio, bestNs, serial, maxSlowdown))
		}
	}
	return violations, note, skipped
}

// jsonRecord builds the JSON record: a self-describing header plus
// per-family worker curves with the speedup at the widest pool.
func jsonRecord(curves []curve, env environment, desc string, now time.Time) map[string]any {
	families := map[string]any{}
	for _, c := range curves {
		entry := map[string]any{}
		workers := make([]int, 0, len(c.NsPerOp))
		for w := range c.NsPerOp {
			workers = append(workers, w)
		}
		sort.Ints(workers)
		for _, w := range workers {
			entry[fmt.Sprintf("workers_%d_ns_op", w)] = c.NsPerOp[w]
		}
		if serial, ok := c.NsPerOp[1]; ok {
			if w := c.widest(); w > 1 && c.NsPerOp[w] > 0 {
				entry[fmt.Sprintf("speedup_at_%d", w)] = fmt.Sprintf("%.2fx", serial/c.NsPerOp[w])
			}
		}
		families[c.Family] = entry
	}
	return map[string]any{
		"description": desc,
		"date":        now.Format("2006-01-02"),
		"environment": env,
		"curves":      families,
	}
}

func run(in io.Reader, out io.Writer, gateMode bool, maxSlowdown, minSerialNs float64, jsonPath, desc string) error {
	results, env, err := parseBench(in)
	if err != nil {
		return err
	}
	curves := buildCurves(results)
	if len(curves) == 0 {
		return fmt.Errorf("no /workers-K benchmark results found in input")
	}
	if jsonPath != "" {
		rec := jsonRecord(curves, env, desc, time.Now())
		buf, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s (%d families)\n", jsonPath, len(curves))
	}
	if gateMode {
		violations, note, skipped := gate(curves, maxSlowdown, env.Cores, minSerialNs)
		if note != "" {
			fmt.Fprintf(out, "note: %s\n", note)
		}
		if skipped > 0 {
			fmt.Fprintf(out, "note: %d micro-scale families below %.0f ns/op serial not gated (noise-dominated at smoke benchtimes)\n", skipped, minSerialNs)
		}
		for _, v := range violations {
			fmt.Fprintf(out, "FAIL %s\n", v)
		}
		if len(violations) > 0 {
			return fmt.Errorf("%d worker-scaling violation(s)", len(violations))
		}
		fmt.Fprintf(out, "ok: %d families gated within %.2fx serial (%d skipped)\n", len(curves)-skipped, maxSlowdown, skipped)
	}
	return nil
}

func main() {
	gateMode := flag.Bool("gate", false, "fail when a family's best parallel width exceeds -max-slowdown x its serial run")
	maxSlowdown := flag.Float64("max-slowdown", 1.10, "gate threshold: best parallel ns/op may not exceed this multiple of serial")
	minSerialNs := flag.Float64("min-serial-ns", 1e6, "only gate families whose serial run is at least this many ns/op (smaller ones are noise-dominated smoke samples)")
	jsonPath := flag.String("json", "", "write a BENCH_parallel.json-style record to this path")
	desc := flag.String("desc", "Worker-count scaling of the parallel mapping kernels (bench_parallel_test.go)", "description embedded in the JSON record")
	flag.Parse()
	if !*gateMode && *jsonPath == "" {
		fmt.Fprintln(os.Stderr, "benchsmoke: nothing to do; pass -gate and/or -json PATH")
		os.Exit(2)
	}
	if err := run(os.Stdin, os.Stdout, *gateMode, *maxSlowdown, *minSerialNs, *jsonPath, *desc); err != nil {
		fmt.Fprintln(os.Stderr, "benchsmoke:", err)
		os.Exit(1)
	}
}
