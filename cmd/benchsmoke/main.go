// Command benchsmoke gates `go test -bench` output for the worker-count
// scaling benchmarks (bench_parallel_test.go) on the serial-vs-parallel
// comparison.
//
// Usage:
//
//	go test . -run xxx -bench ParallelFig -benchtime 200ms | benchsmoke
//
// The gate fails when any benchmark family's best parallel run (minimum
// ns/op over workers > 1) is more than maxSlowdown (1.10) times its
// workers=1 run — a real serialization bug slows every width, while one
// noisy sample cannot trip the smoke. Only large configs are gated:
// families whose serial run is under minSerialNs (1 ms) are micro-scale
// and noise-dominated at smoke benchtimes, so they are reported but not
// judged. On a single-core host a parallel pool cannot beat serial, so the
// gate only bounds overhead there and says so; on multicore it doubles as
// a scaling regression tripwire.
//
// Recorded benchmark numbers live in perfbench (perfbench/README.md).
package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

const (
	// maxSlowdown bounds a family's best parallel ns/op as a multiple of
	// its workers=1 run.
	maxSlowdown = 1.10
	// minSerialNs is the serial ns/op below which a family is micro-scale
	// and not gated.
	minSerialNs = 1e6
)

// benchLine matches one result line of `go test -bench` output, e.g.
//
//	BenchmarkParallelFig5a/aco/workers-1-4   529   98729 ns/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+([0-9.]+) ns/op`)

// result is one parsed benchmark line.
type result struct {
	Name    string // normalized: trailing -GOMAXPROCS suffix stripped
	NsPerOp float64
}

// environment echoes the header lines of the bench output plus the core
// count the gate judges against.
type environment struct {
	Goos   string
	Goarch string
	CPU    string
	Cores  int
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
	env := environment{Cores: runtime.GOMAXPROCS(0)}
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
// ok is false for benchmarks without a /workers-K leaf.
var workersLeaf = regexp.MustCompile(`^(.+)/workers-(\d+)$`)

func workersRun(name string) (family string, workers int, ok bool) {
	m := workersLeaf.FindStringSubmatch(name)
	if m == nil {
		return "", 0, false
	}
	w, err := strconv.Atoi(m[2])
	if err != nil {
		return "", 0, false
	}
	return m[1], w, true
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

func run(in io.Reader, out io.Writer) error {
	results, env, err := parseBench(in)
	if err != nil {
		return err
	}
	curves := buildCurves(results)
	if len(curves) == 0 {
		return fmt.Errorf("no /workers-K benchmark results found in input")
	}
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
	return nil
}

func main() {
	if err := run(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchsmoke:", err)
		os.Exit(1)
	}
}
