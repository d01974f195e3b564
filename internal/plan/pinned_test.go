package plan

import (
	"math"
	"testing"
)

// pinnedSpec builds one of the pinned-run configurations from the baseline
// spec document: central-queue dispatch over 1-PE and 4-PE VMs, per-VM
// spread dispatch, and an elastic fleet whose scale-ups boot after a delay
// (so boot events share PriorityAcquire with arrivals).
func pinnedSpec(t *testing.T, name string, seed uint64) *Spec {
	t.Helper()
	spec, err := ParseSpec([]byte(validSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	spec.Seed = seed
	spec.Workload.Cloudlets, spec.Workload.Warmup = 3000, 300
	spec.SLO.TargetSeconds = 8 // reachable, so the verdict bisects
	switch name {
	case "queue-1pe":
	case "queue-4pe":
		spec.Fleet.VMPes, spec.Fleet.MaxVMs = 4, 8
	case "spread":
		spec.Fleet.Dispatch = DispatchSpread
	case "elastic":
		spec.Workload.Rate = 4
		spec.SLO = SLOSpec{Quantile: 0.95, TargetSeconds: 60}
		spec.Fleet.MaxVMs = 16
		spec.Elastic = &ElasticSpec{ScaleUpLoad: 3, ScaleDownLoad: 0.5, Interval: 5, BootDelay: 10}
	default:
		t.Fatalf("unknown pinned spec %q", name)
	}
	return spec
}

// pinnedProbe is one probe of a pinned verdict: the probe's statistics as
// float bits, and the DES event count of plan.Run at that fleet size.
type pinnedProbe struct {
	spec         string
	seed         uint64
	fleet, peak  int
	count        uint64
	meanWait     uint64 // math.Float64bits
	quantile     uint64 // math.Float64bits
	ups, downs   int
	engineEvents uint64
}

// pinnedProbes was recorded on the engine before arrivals were streamed,
// central-queue dispatch moved to a free-PE bitmap, SpaceShared stopped
// allocating per cloudlet and the DES kernel moved to slab-allocated
// events. Those are pure speed changes, so every value must reproduce bit
// for bit.
var pinnedProbes = []pinnedProbe{
	{"queue-1pe", 7, 32, 32, 2700, 0x0000000000000000, 0x401501b48344df08, 0, 0, 6000},
	{"queue-1pe", 7, 16, 16, 2700, 0x3f704b11c434145d, 0x401501b48344df08, 0, 0, 6000},
	{"queue-1pe", 7, 8, 8, 2700, 0x4012f320a09ed03f, 0x402d5de750e07c98, 0, 0, 6000},
	{"queue-1pe", 7, 12, 12, 2700, 0x3fb599f8223ca19b, 0x40153be92f46b36c, 0, 0, 6000},
	{"queue-1pe", 7, 10, 10, 2700, 0x3fdb30cd98b8e6f3, 0x4017c5693f58e436, 0, 0, 6000},
	{"queue-1pe", 7, 9, 9, 2700, 0x3ff15b17eafa039c, 0x401dd26cc3d5eb19, 0, 0, 6000},
	{"queue-1pe", 8, 32, 32, 2700, 0x0000000000000000, 0x401269acea60dffc, 0, 0, 6000},
	{"queue-1pe", 8, 16, 16, 2700, 0x3f4d72b9869cb1c7, 0x401269acea60dffc, 0, 0, 6000},
	{"queue-1pe", 8, 8, 8, 2700, 0x4007b3cde6eb6506, 0x4021d8e2356fe5f4, 0, 0, 6000},
	{"queue-1pe", 8, 12, 12, 2700, 0x3fa1dbe3cc3ff4b0, 0x4012afd1c63f44d8, 0, 0, 6000},
	{"queue-1pe", 8, 10, 10, 2700, 0x3fc4687c3d9cdaaa, 0x4013a3eba4ab9996, 0, 0, 6000},
	{"queue-1pe", 8, 9, 9, 2700, 0x3fdca752dd2136da, 0x401557bf97cd2422, 0, 0, 6000},
	{"queue-4pe", 7, 8, 8, 2700, 0x0000000000000000, 0x401501b48344df08, 0, 0, 6000},
	{"queue-4pe", 7, 4, 4, 2700, 0x3f704b11c434145d, 0x401501b48344df08, 0, 0, 6000},
	{"queue-4pe", 7, 2, 2, 2700, 0x4012f320a09ed03f, 0x402d5de750e07c98, 0, 0, 6000},
	{"queue-4pe", 7, 3, 3, 2700, 0x3fb599f8223ca19b, 0x40153be92f46b36c, 0, 0, 6000},
	{"queue-4pe", 8, 8, 8, 2700, 0x0000000000000000, 0x401269acea60dffc, 0, 0, 6000},
	{"queue-4pe", 8, 4, 4, 2700, 0x3f4d72b9869cb1c7, 0x401269acea60dffc, 0, 0, 6000},
	{"queue-4pe", 8, 2, 2, 2700, 0x4007b3cde6eb6506, 0x4021d8e2356fe5f4, 0, 0, 6000},
	{"queue-4pe", 8, 3, 3, 2700, 0x3fa1dbe3cc3ff4b0, 0x4012afd1c63f44d8, 0, 0, 6000},
	{"spread", 7, 32, 32, 2700, 0x0000000000000000, 0x401501b48344df08, 0, 0, 6000},
	{"spread", 7, 16, 16, 2700, 0x3f8b8c51d72b1bfe, 0x40151f2417c454fd, 0, 0, 6000},
	{"spread", 7, 8, 8, 2700, 0x4014767635cc5e45, 0x40320aed5dcd9fe1, 0, 0, 6000},
	{"spread", 7, 12, 12, 2700, 0x3fc4a2c984e8c7da, 0x40166838037ca9a2, 0, 0, 6000},
	{"spread", 7, 10, 10, 2700, 0x3fe2816bf462ab03, 0x401eabaa22e773de, 0, 0, 6000},
	{"spread", 7, 9, 9, 2700, 0x3ff61f57602755f2, 0x402358e638eaa941, 0, 0, 6000},
	{"spread", 8, 32, 32, 2700, 0x0000000000000000, 0x401269acea60dffc, 0, 0, 6000},
	{"spread", 8, 16, 16, 2700, 0x3f75fa834acef324, 0x401269acea60dffc, 0, 0, 6000},
	{"spread", 8, 8, 8, 2700, 0x400957fe5dfc6b82, 0x40269331f89fc20e, 0, 0, 6000},
	{"spread", 8, 12, 12, 2700, 0x3fb4b6a28356bd9d, 0x4014052fd22440bf, 0, 0, 6000},
	{"spread", 8, 10, 10, 2700, 0x3fd2f080df5fcf4b, 0x4016f9ac44ac2aa4, 0, 0, 6000},
	{"spread", 8, 9, 9, 2700, 0x3fe4042d30731eb9, 0x401b4d3d3bc66a12, 0, 0, 6000},
	{"elastic", 7, 1, 10, 2700, 0x3feb3e9db404e321, 0x40176db4a4e4191e, 23, 19, 6196},
	{"elastic", 8, 1, 11, 2700, 0x3fee6255ce3274eb, 0x4016b368e74db0f9, 29, 27, 6209},
}

// TestRunPinned re-runs every pinned verdict and requires the same probe
// sequence, the same statistics bit for bit and the same event counts.
func TestRunPinned(t *testing.T) {
	type key struct {
		spec string
		seed uint64
	}
	want := map[key][]pinnedProbe{}
	var order []key
	for _, p := range pinnedProbes {
		k := key{p.spec, p.seed}
		if _, ok := want[k]; !ok {
			order = append(order, k)
		}
		want[k] = append(want[k], p)
	}
	if len(order) != 8 {
		t.Fatalf("pinned table covers %d (spec, seed) pairs, want 8", len(order))
	}
	for _, k := range order {
		spec := pinnedSpec(t, k.spec, k.seed)
		v, err := Plan(spec, nil)
		if err != nil {
			t.Fatalf("%s seed %d: %v", k.spec, k.seed, err)
		}
		if len(v.Probes) != len(want[k]) {
			t.Errorf("%s seed %d: %d probes, pinned %d", k.spec, k.seed, len(v.Probes), len(want[k]))
			continue
		}
		for i, p := range v.Probes {
			w := want[k][i]
			got := pinnedProbe{
				spec: k.spec, seed: k.seed, fleet: p.Fleet, peak: p.PeakFleet, count: p.Count,
				meanWait: math.Float64bits(p.MeanWait), quantile: math.Float64bits(p.QuantileValue),
				ups: p.ScaleUps, downs: p.ScaleDowns, engineEvents: w.engineEvents,
			}
			if got != w {
				t.Errorf("%s seed %d probe %d:\n got %+v\nwant %+v", k.spec, k.seed, i, got, w)
				continue
			}
			res, err := Run(spec, p.Fleet, nil)
			if err != nil {
				t.Fatalf("%s seed %d fleet %d: %v", k.spec, k.seed, p.Fleet, err)
			}
			if res.EngineEvents != w.engineEvents {
				t.Errorf("%s seed %d fleet %d: %d engine events, pinned %d", k.spec, k.seed, p.Fleet, res.EngineEvents, w.engineEvents)
			}
		}
	}
}
