package cloud

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"bioschedsim/internal/sim"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestTimeSharedSingleCloudlet(t *testing.T) {
	eng := sim.NewEngine()
	vm := NewVM(0, 1000, 1, 512, 500, 5000)
	var finished []*Cloudlet
	vm.bind(TimeSharedFactory(eng, vm, func(c *Cloudlet) { finished = append(finished, c) }))
	c := NewCloudlet(0, 250, 1, 300, 300)
	vm.Scheduler().Submit(c)
	eng.Run()
	if len(finished) != 1 {
		t.Fatalf("finished: %d", len(finished))
	}
	// 250 MI at 1000 MIPS → 0.25 s.
	if !almost(c.FinishTime, 0.25, 1e-9) {
		t.Fatalf("finish time: %v", c.FinishTime)
	}
	if c.Status != CloudletFinished {
		t.Fatalf("status: %v", c.Status)
	}
}

func TestTimeSharedEqualShare(t *testing.T) {
	eng := sim.NewEngine()
	vm := NewVM(0, 1000, 1, 512, 500, 5000)
	vm.bind(TimeSharedFactory(eng, vm, nil))
	// Two identical cloudlets share 1000 MIPS → each runs at 500 MIPS.
	a := NewCloudlet(0, 500, 1, 0, 0)
	b := NewCloudlet(1, 500, 1, 0, 0)
	vm.Scheduler().Submit(a)
	vm.Scheduler().Submit(b)
	eng.Run()
	if !almost(a.FinishTime, 1.0, 1e-9) || !almost(b.FinishTime, 1.0, 1e-9) {
		t.Fatalf("finish times: %v %v", a.FinishTime, b.FinishTime)
	}
}

func TestTimeSharedUnequalLengths(t *testing.T) {
	eng := sim.NewEngine()
	vm := NewVM(0, 100, 1, 512, 500, 5000)
	vm.bind(TimeSharedFactory(eng, vm, nil))
	short := NewCloudlet(0, 100, 1, 0, 0)
	long := NewCloudlet(1, 300, 1, 0, 0)
	vm.Scheduler().Submit(short)
	vm.Scheduler().Submit(long)
	eng.Run()
	// Processor sharing: both at 50 MIPS until short finishes at t=2
	// (100 MI/50). Long then has 200 MI left at 100 MIPS → finishes at t=4.
	if !almost(short.FinishTime, 2.0, 1e-9) {
		t.Fatalf("short finish: %v", short.FinishTime)
	}
	if !almost(long.FinishTime, 4.0, 1e-9) {
		t.Fatalf("long finish: %v", long.FinishTime)
	}
}

func TestTimeSharedStaggeredArrival(t *testing.T) {
	eng := sim.NewEngine()
	vm := NewVM(0, 100, 1, 512, 500, 5000)
	vm.bind(TimeSharedFactory(eng, vm, nil))
	a := NewCloudlet(0, 200, 1, 0, 0)
	b := NewCloudlet(1, 100, 1, 0, 0)
	vm.Scheduler().Submit(a) // t=0: a alone at 100 MIPS
	eng.Schedule(1, sim.PriorityAcquire, func() { vm.Scheduler().Submit(b) })
	eng.Run()
	// t=1: a has 100 MI left; both now at 50 MIPS. Both finish together at t=3.
	if !almost(a.FinishTime, 3.0, 1e-9) {
		t.Fatalf("a finish: %v", a.FinishTime)
	}
	if !almost(b.FinishTime, 3.0, 1e-9) {
		t.Fatalf("b finish: %v", b.FinishTime)
	}
	if b.StartTime != 1.0 {
		t.Fatalf("b start: %v", b.StartTime)
	}
}

func TestTimeSharedMultiPEVM(t *testing.T) {
	eng := sim.NewEngine()
	vm := NewVM(0, 100, 4, 512, 500, 5000) // 400 MIPS aggregate
	vm.bind(TimeSharedFactory(eng, vm, nil))
	c := NewCloudlet(0, 400, 1, 0, 0)
	vm.Scheduler().Submit(c)
	eng.Run()
	if !almost(c.FinishTime, 1.0, 1e-9) {
		t.Fatalf("finish: %v", c.FinishTime)
	}
}

func TestTimeSharedResident(t *testing.T) {
	eng := sim.NewEngine()
	vm := NewVM(0, 100, 1, 512, 500, 5000)
	vm.bind(TimeSharedFactory(eng, vm, nil))
	for i := 0; i < 5; i++ {
		vm.Scheduler().Submit(NewCloudlet(i, 100, 1, 0, 0))
	}
	if vm.QueuedOrRunning() != 5 {
		t.Fatalf("resident: %d", vm.QueuedOrRunning())
	}
	eng.Run()
	if vm.QueuedOrRunning() != 0 {
		t.Fatalf("resident after run: %d", vm.QueuedOrRunning())
	}
}

func TestTimeSharedDoubleSubmitPanics(t *testing.T) {
	eng := sim.NewEngine()
	vm := NewVM(0, 100, 1, 512, 500, 5000)
	vm.bind(TimeSharedFactory(eng, vm, nil))
	c := NewCloudlet(0, 100, 1, 0, 0)
	vm.Scheduler().Submit(c)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double submit")
		}
	}()
	vm.Scheduler().Submit(c)
}

func TestSpaceSharedSerialExecution(t *testing.T) {
	eng := sim.NewEngine()
	vm := NewVM(0, 100, 1, 512, 500, 5000)
	vm.bind(SpaceSharedFactory(eng, vm, nil))
	a := NewCloudlet(0, 100, 1, 0, 0)
	b := NewCloudlet(1, 100, 1, 0, 0)
	vm.Scheduler().Submit(a)
	vm.Scheduler().Submit(b)
	eng.Run()
	// FIFO on one PE: a [0,1], b [1,2].
	if !almost(a.FinishTime, 1.0, 1e-9) || !almost(b.FinishTime, 2.0, 1e-9) {
		t.Fatalf("finish times: %v %v", a.FinishTime, b.FinishTime)
	}
	if b.StartTime != 1.0 {
		t.Fatalf("b start: %v (want 1.0, queued)", b.StartTime)
	}
	if b.WaitTime() != 1.0 {
		t.Fatalf("b wait: %v", b.WaitTime())
	}
}

func TestSpaceSharedParallelPEs(t *testing.T) {
	eng := sim.NewEngine()
	vm := NewVM(0, 100, 2, 512, 500, 5000)
	vm.bind(SpaceSharedFactory(eng, vm, nil))
	a := NewCloudlet(0, 100, 1, 0, 0)
	b := NewCloudlet(1, 100, 1, 0, 0)
	c := NewCloudlet(2, 100, 1, 0, 0)
	vm.Scheduler().Submit(a)
	vm.Scheduler().Submit(b)
	vm.Scheduler().Submit(c)
	eng.Run()
	// a,b run in parallel [0,1]; c runs [1,2].
	if !almost(a.FinishTime, 1.0, 1e-9) || !almost(b.FinishTime, 1.0, 1e-9) {
		t.Fatalf("parallel finish: %v %v", a.FinishTime, b.FinishTime)
	}
	if !almost(c.FinishTime, 2.0, 1e-9) {
		t.Fatalf("queued finish: %v", c.FinishTime)
	}
}

func TestSpaceSharedMultiPECloudlet(t *testing.T) {
	eng := sim.NewEngine()
	vm := NewVM(0, 100, 2, 512, 500, 5000)
	vm.bind(SpaceSharedFactory(eng, vm, nil))
	wide := NewCloudlet(0, 400, 2, 0, 0) // needs both PEs → 200 MIPS
	vm.Scheduler().Submit(wide)
	eng.Run()
	if !almost(wide.FinishTime, 2.0, 1e-9) {
		t.Fatalf("wide finish: %v", wide.FinishTime)
	}
}

func TestSpaceSharedOversizedCloudletClamped(t *testing.T) {
	eng := sim.NewEngine()
	vm := NewVM(0, 100, 1, 512, 500, 5000)
	vm.bind(SpaceSharedFactory(eng, vm, nil))
	wide := NewCloudlet(0, 100, 4, 0, 0) // wants 4 PEs, VM has 1
	vm.Scheduler().Submit(wide)
	eng.Run()
	if wide.Status != CloudletFinished {
		t.Fatal("oversized cloudlet deadlocked")
	}
	if !almost(wide.FinishTime, 1.0, 1e-9) {
		t.Fatalf("clamped finish: %v", wide.FinishTime)
	}
}

// TestSpaceSharedQueueHeadOrder: five mixed-length cloudlets on a 2-PE VM
// finish in the order the FIFO head dictates, and Resident counts the
// running slots plus what is left behind the queue head at every step.
func TestSpaceSharedQueueHeadOrder(t *testing.T) {
	eng := sim.NewEngine()
	vm := NewVM(0, 100, 2, 512, 500, 5000)
	var order []int
	var resident []int
	vm.bind(SpaceSharedFactory(eng, vm, func(c *Cloudlet) {
		order = append(order, c.ID)
		resident = append(resident, vm.Scheduler().Resident())
	}))
	lengths := []float64{300, 100, 200, 50, 100}
	cls := make([]*Cloudlet, len(lengths))
	for i, l := range lengths {
		cls[i] = NewCloudlet(i, l, 1, 0, 0)
		vm.Scheduler().Submit(cls[i])
	}
	if got := vm.Scheduler().Resident(); got != 5 {
		t.Fatalf("Resident after submit = %d, want 5", got)
	}
	eng.Run()
	// 0 [0,3] and 1 [0,1] start at once; 2 [1,3] takes 1's PE; 0 and 2 both
	// end at t=3, 0 first (armed earlier), so 3 [3,3.5] then 4 [3,4] start.
	if want := []int{1, 0, 2, 3, 4}; !slices.Equal(order, want) {
		t.Fatalf("finish order %v, want %v", order, want)
	}
	if want := []int{4, 3, 2, 1, 0}; !slices.Equal(resident, want) {
		t.Fatalf("Resident at each finish %v, want %v", resident, want)
	}
	starts := []float64{0, 0, 1, 3, 3}
	finishes := []float64{3, 1, 3, 3.5, 4}
	for i, c := range cls {
		if c.StartTime != starts[i] || c.FinishTime != finishes[i] {
			t.Errorf("cloudlet %d ran [%v, %v], want [%v, %v]", i, c.StartTime, c.FinishTime, starts[i], finishes[i])
		}
	}
}

// TestSpaceSharedDrainMidFlight: Drain returns running and queued cloudlets
// sorted by ID with the running ones' progress kept; the cancelled
// completions of the drained runs must not fire into the reused slots, and
// resubmitting the batch finishes it.
func TestSpaceSharedDrainMidFlight(t *testing.T) {
	eng := sim.NewEngine()
	vm := NewVM(0, 100, 2, 512, 500, 5000)
	vm.bind(SpaceSharedFactory(eng, vm, nil))
	byID := map[int]*Cloudlet{
		3: NewCloudlet(3, 100, 1, 0, 0),
		1: NewCloudlet(1, 200, 1, 0, 0),
		2: NewCloudlet(2, 50, 1, 0, 0),
		0: NewCloudlet(0, 100, 1, 0, 0),
	}
	for _, id := range []int{3, 1, 2, 0} { // 3 and 1 run, 2 and 0 queue
		vm.Scheduler().Submit(byID[id])
	}
	eng.RunUntil(0.5)
	out := vm.Scheduler().Drain()
	if got := vm.Scheduler().Resident(); got != 0 {
		t.Fatalf("Resident after Drain = %d, want 0", got)
	}
	if len(out) != 4 {
		t.Fatalf("drained %d cloudlets, want 4", len(out))
	}
	remaining := []float64{100, 150, 50, 50}
	for i, c := range out {
		if c.ID != i {
			t.Fatalf("drained IDs not sorted: position %d holds %d", i, c.ID)
		}
		if c.Status != CloudletCreated || c.VM != nil {
			t.Errorf("cloudlet %d not reset for resubmission: %v on %v", c.ID, c.Status, c.VM)
		}
		if !almost(c.Remaining(), remaining[i], 1e-9) {
			t.Errorf("cloudlet %d remaining %v, want %v", c.ID, c.Remaining(), remaining[i])
		}
	}
	for _, c := range out {
		vm.Scheduler().Submit(c)
	}
	eng.Run()
	// From t=0.5: 0 [0.5,1.5] and 1 [0.5,2]; 2 [1.5,2]; 3 [2,2.5].
	finishes := []float64{1.5, 2, 2, 2.5}
	for i, c := range out {
		if c.Status != CloudletFinished || !almost(c.FinishTime, finishes[i], 1e-9) {
			t.Errorf("cloudlet %d: %v at %v, want finished at %v", c.ID, c.Status, c.FinishTime, finishes[i])
		}
	}
}

// TestSchedulersWorkConservation: total executed MI equals total submitted
// MI and every cloudlet finishes, for random batches on both disciplines.
func TestSchedulersWorkConservation(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		for _, factory := range []SchedulerFactory{TimeSharedFactory, SpaceSharedFactory} {
			eng := sim.NewEngine()
			vm := NewVM(0, 100+r.Float64()*900, 1+r.Intn(4), 512, 500, 5000)
			var finished []*Cloudlet
			vm.bind(factory(eng, vm, func(c *Cloudlet) { finished = append(finished, c) }))
			n := 1 + r.Intn(30)
			var total float64
			for i := 0; i < n; i++ {
				length := 1 + r.Float64()*5000
				total += length
				vm.Scheduler().Submit(NewCloudlet(i, length, 1+r.Intn(2), 0, 0))
			}
			eng.Run()
			if len(finished) != n {
				return false
			}
			var span sim.Time
			for _, c := range finished {
				if c.FinishTime > span {
					span = c.FinishTime
				}
				if c.Remaining() != 0 {
					return false
				}
			}
			// Makespan cannot beat the aggregate-capacity lower bound.
			if span < total/vm.Capacity()-1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestTimeSharedFinishOrderMatchesLengths: shorter cloudlets never finish
// after longer ones when all arrive together.
func TestTimeSharedFinishOrderMatchesLengths(t *testing.T) {
	eng := sim.NewEngine()
	vm := NewVM(0, 1000, 1, 512, 500, 5000)
	var order []int
	vm.bind(TimeSharedFactory(eng, vm, func(c *Cloudlet) { order = append(order, c.ID) }))
	lengths := []float64{500, 100, 300, 200, 400}
	for i, l := range lengths {
		vm.Scheduler().Submit(NewCloudlet(i, l, 1, 0, 0))
	}
	eng.Run()
	want := []int{1, 3, 2, 4, 0} // ascending by length
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("finish order: %v want %v", order, want)
		}
	}
}

func BenchmarkTimeSharedThousandCloudlets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		vm := NewVM(0, 1000, 1, 512, 500, 5000)
		vm.bind(TimeSharedFactory(eng, vm, nil))
		for j := 0; j < 1000; j++ {
			vm.Scheduler().Submit(NewCloudlet(j, 100+float64(j%7)*50, 1, 0, 0))
		}
		eng.Run()
	}
}

func BenchmarkSpaceSharedThousandCloudlets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		vm := NewVM(0, 1000, 2, 512, 500, 5000)
		vm.bind(SpaceSharedFactory(eng, vm, nil))
		for j := 0; j < 1000; j++ {
			vm.Scheduler().Submit(NewCloudlet(j, 100+float64(j%7)*50, 1, 0, 0))
		}
		eng.Run()
	}
}

// TestTimeSharedTinyRemainderLateClockTerminates is the regression for a
// processor-sharing livelock: late in a long run (clock ≈ 3.4e5 s) a
// cloudlet with ≈1.02e-7 MI left at ≈3510 MIPS has an ETA below half an
// ulp of the clock, so now+eta rounds to now. The completion tick then
// retired no work and re-armed the same instant forever. It must finish
// within a bounded number of engine steps instead.
func TestTimeSharedTinyRemainderLateClockTerminates(t *testing.T) {
	eng := sim.NewEngine()
	vm := NewVM(0, 3510, 1, 512, 500, 5000)
	vm.bind(TimeSharedFactory(eng, vm, nil))
	c := NewCloudlet(0, 1.02e-7, 1, 0, 0)
	const at = 3.4e5
	if eta := c.Length / vm.Capacity(); at+eta != at {
		t.Fatalf("fixture no longer rounds: %v + %v != %v", at, eta, at)
	}
	eng.ScheduleAt(at, 0, func() { vm.Scheduler().Submit(c) })
	for i := 0; i < 100 && eng.Step(); i++ {
	}
	if c.Status != CloudletFinished {
		t.Fatalf("cloudlet still %v after 100 steps at t=%v (remaining %v MI)", c.Status, eng.Now(), c.remaining)
	}
	if eng.Step() {
		t.Fatalf("engine still has events after the only cloudlet finished (t=%v)", eng.Now())
	}
}
