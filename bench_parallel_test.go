// Worker-count scaling curves for the parallel mapping kernels. Each
// benchmark fans the same figure workload over workers ∈ {1, 2, 4, 8} so
// `verify.sh bench-smoke` can gate serial-vs-parallel regressions. Results
// are bit-identical at every worker count (see the worker-invariance suite);
// only wall clock may move. Recorded end-to-end numbers, with their spread
// and per-layer breakdown, come from perfbench (perfbench/README.md).
package bioschedsim_test

import (
	"flag"
	"fmt"
	"testing"

	"bioschedsim/internal/sched"
	"bioschedsim/internal/workload"
)

// benchWorkers bounds the kernel pool for every scheduleOnly bench:
//
//	go test . -bench Fig5a -args -workers=4
//
// 0 means GOMAXPROCS, matching the sched.WorkerTunable convention.
var benchWorkers = flag.Int("workers", 0, "worker pool bound for WorkerTunable schedulers (0 = GOMAXPROCS)")

// parallelAlgorithms is the set with Traits.Parallel kernels on the
// mapping-decision hot path (ga is covered by its own package benches).
var parallelAlgorithms = []string{"aco", "hbo", "rbs"}

var workerCurve = []int{1, 2, 4, 8}

func benchParallelSchedule(b *testing.B, scenario *workload.Scenario, name string, workers int) {
	b.Helper()
	scheduler, err := sched.New(name, sched.WithWorkers(workers))
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

// BenchmarkParallelFig5a sweeps the homogeneous 20x2000 scheduling-time
// workload (Fig. 5a) across worker counts.
func BenchmarkParallelFig5a(b *testing.B) {
	scenario := homScenario(b, 20, 2000)()
	for _, alg := range parallelAlgorithms {
		for _, w := range workerCurve {
			b.Run(fmt.Sprintf("%s/workers-%d", alg, w), func(b *testing.B) {
				benchParallelSchedule(b, scenario, alg, w)
			})
		}
	}
}

// BenchmarkParallelFig6b sweeps the heterogeneous 50x500 scheduling-time
// workload (Fig. 6b) across worker counts.
func BenchmarkParallelFig6b(b *testing.B) {
	scenario := hetScenario(b, 50, 500)()
	for _, alg := range parallelAlgorithms {
		for _, w := range workerCurve {
			b.Run(fmt.Sprintf("%s/workers-%d", alg, w), func(b *testing.B) {
				benchParallelSchedule(b, scenario, alg, w)
			})
		}
	}
}

// BenchmarkParallelPaperScale is the paper-scale smoke point: 10k VMs x
// 100k cloudlets, homogeneous (the fleet the paper sizes its largest
// tables against). One mapping decision per iteration — run it with
// -bench ParallelPaperScale -benchtime=1x; rbs and hbo only, since
// ACO's O(ants*n*m) construction is not a single-smoke-point workload.
func BenchmarkParallelPaperScale(b *testing.B) {
	scenario := homScenario(b, 10000, 100000)()
	for _, alg := range []string{"hbo", "rbs"} {
		for _, w := range []int{1, 8} {
			b.Run(fmt.Sprintf("%s/workers-%d", alg, w), func(b *testing.B) {
				benchParallelSchedule(b, scenario, alg, w)
			})
		}
	}
}
