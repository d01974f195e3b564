package plan

import "testing"

// maxAllocsPerCloudlet bounds heap allocations per simulated cloudlet of a
// central-queue plan.Run. Only the cloudlet itself is allocated one by
// one; DES events come from slabs, completion callbacks are built once per
// SpaceShared slot, and the arrival offsets, the dispatch FIFO and the
// broker's finished list are slices allocated once or grown by doubling.
// Measured at 1.05 per cloudlet (4 000 cloudlets, 10 VMs); the ceiling
// leaves a small margin.
const maxAllocsPerCloudlet = 1.2

// TestRunAllocsPerCloudlet catches allocation regressions on the planner's
// hot path without a benchmark run.
func TestRunAllocsPerCloudlet(t *testing.T) {
	spec, err := ParseSpec([]byte(validSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	spec.Workload.Cloudlets, spec.Workload.Warmup = 4000, 400
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Run(spec, 10, nil); err != nil {
			t.Fatal(err)
		}
	})
	perCloudlet := allocs / float64(spec.Workload.Cloudlets)
	t.Logf("%.0f allocs per run, %.3f per cloudlet", allocs, perCloudlet)
	if perCloudlet > maxAllocsPerCloudlet {
		t.Fatalf("plan.Run allocates %.3f times per cloudlet, ceiling %.1f", perCloudlet, maxAllocsPerCloudlet)
	}
}
