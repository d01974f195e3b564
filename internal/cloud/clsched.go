package cloud

import (
	"fmt"
	"math"
	"sort"

	"bioschedsim/internal/sim"
)

// lengthEps is the residual-work tolerance (in MI) below which a cloudlet is
// considered finished; it absorbs float64 drift in progress accounting.
const lengthEps = 1e-7

// CloudletScheduler executes cloudlets resident on one VM, the CloudSim
// CloudletScheduler analogue. Implementations are bound to a VM and an
// engine by the broker and report completions through a callback.
type CloudletScheduler interface {
	// Name identifies the discipline in reports.
	Name() string
	// Submit hands a cloudlet to the VM at the engine's current time.
	Submit(*Cloudlet)
	// Resident returns the number of cloudlets queued or running.
	Resident() int
	// Drain interrupts every resident cloudlet and returns them with their
	// progress retained (remaining work updated to the current instant).
	// The scheduler is empty afterwards; drained cloudlets are back in the
	// created state and can be resubmitted elsewhere. Used for VM-failure
	// injection and migration.
	Drain() []*Cloudlet
}

// FinishFunc is invoked (inside the engine) whenever a cloudlet completes.
type FinishFunc func(*Cloudlet)

// ---------------------------------------------------------------------------
// Time-shared

// TimeShared divides the VM's total capacity equally among all resident
// cloudlets (processor sharing): with n cloudlets resident each progresses
// at Capacity/n MIPS. This matches CloudSim's CloudletSchedulerTimeShared
// and is the paper's execution discipline.
type TimeShared struct {
	eng      *sim.Engine
	vm       *VM
	onFinish FinishFunc

	resident   []*Cloudlet
	lastUpdate sim.Time
	next       *sim.Event
}

// NewTimeShared returns a time-shared scheduler bound to vm on eng.
func NewTimeShared(eng *sim.Engine, vm *VM, onFinish FinishFunc) *TimeShared {
	if eng == nil || vm == nil {
		panic("cloud: NewTimeShared with nil engine or VM")
	}
	return &TimeShared{eng: eng, vm: vm, onFinish: onFinish, lastUpdate: eng.Now()}
}

// Name implements CloudletScheduler.
func (s *TimeShared) Name() string { return "time-shared" }

// Resident implements CloudletScheduler.
func (s *TimeShared) Resident() int { return len(s.resident) }

// Submit implements CloudletScheduler. Under processor sharing every
// cloudlet starts executing immediately (at a reduced rate).
func (s *TimeShared) Submit(c *Cloudlet) {
	if c.Status != CloudletCreated {
		panic(fmt.Sprintf("cloud: cloudlet %d submitted twice (status %v)", c.ID, c.Status))
	}
	s.advance()
	now := s.eng.Now()
	c.Status = CloudletRunning
	c.VM = s.vm
	c.SubmitTime = now
	c.StartTime = now
	s.resident = append(s.resident, c)
	s.reschedule()
}

// shareMIPS returns the per-cloudlet execution rate right now.
func (s *TimeShared) shareMIPS() float64 {
	if len(s.resident) == 0 {
		return 0
	}
	return s.vm.Capacity() / float64(len(s.resident))
}

// advance retires work done since lastUpdate at the prevailing share.
func (s *TimeShared) advance() {
	now := s.eng.Now()
	elapsed := now - s.lastUpdate
	s.lastUpdate = now
	if elapsed <= 0 || len(s.resident) == 0 {
		return
	}
	done := s.shareMIPS() * elapsed
	for _, c := range s.resident {
		c.remaining -= done
	}
}

// reschedule (re-)arms the completion event for the earliest finisher and
// retires any cloudlet whose remaining work dropped within tolerance.
func (s *TimeShared) reschedule() {
	if s.next != nil {
		s.next.Cancel()
		s.next = nil
	}
	s.collect()
	if len(s.resident) == 0 {
		return
	}
	minRem := s.resident[0].remaining
	for _, c := range s.resident[1:] {
		if c.remaining < minRem {
			minRem = c.remaining
		}
	}
	eta := minRem / s.shareMIPS()
	if eta < 0 {
		eta = 0
	}
	if now := s.eng.Now(); now+eta <= now {
		// The ETA is below half an ulp of a late clock, so now+eta rounds
		// back to now and the tick would retire no work and re-arm the same
		// instant forever. Arm the next representable instant instead: the
		// elapsed ulp covers the sub-tolerance remainder.
		eta = math.Nextafter(now, math.Inf(1)) - now
	}
	s.next = s.eng.Schedule(eta, sim.PriorityRelease, s.onTick)
}

// onTick fires when the earliest finisher should be done.
func (s *TimeShared) onTick() {
	s.next = nil
	s.advance()
	s.reschedule()
}

// Drain implements CloudletScheduler.
func (s *TimeShared) Drain() []*Cloudlet {
	s.advance()
	if s.next != nil {
		s.next.Cancel()
		s.next = nil
	}
	out := make([]*Cloudlet, len(s.resident))
	copy(out, s.resident)
	for i := range s.resident {
		s.resident[i] = nil
	}
	s.resident = s.resident[:0]
	for _, c := range out {
		c.interrupt()
	}
	return out
}

// collect finishes every resident cloudlet whose work is exhausted.
func (s *TimeShared) collect() {
	now := s.eng.Now()
	kept := s.resident[:0]
	var finished []*Cloudlet
	for _, c := range s.resident {
		if c.remaining <= lengthEps {
			c.remaining = 0
			c.Status = CloudletFinished
			c.FinishTime = now
			finished = append(finished, c)
		} else {
			kept = append(kept, c)
		}
	}
	// Zero the tail so finished cloudlets do not pin the backing array.
	for i := len(kept); i < len(s.resident); i++ {
		s.resident[i] = nil
	}
	s.resident = kept
	if s.onFinish != nil {
		for _, c := range finished {
			s.onFinish(c)
		}
	}
}

// ---------------------------------------------------------------------------
// Space-shared

// SpaceShared grants each running cloudlet exclusive PEs at full MIPS and
// queues the overflow FIFO, matching CloudSim's CloudletSchedulerSpaceShared.
// It allocates nothing per cloudlet once warm: running cloudlets occupy
// reusable slots (at most one per PE) and the queue is a slice read from a
// head index.
type SpaceShared struct {
	eng      *sim.Engine
	vm       *VM
	onFinish FinishFunc

	freePEs int
	running []spaceRun // slots, grown on demand up to vm.PEs
	busy    int        // slots holding a cloudlet
	queue   []*Cloudlet
	head    int // queue[head:] is still waiting
}

// spaceRun is one execution slot: the cloudlet it runs (nil while free)
// and what Drain needs to stop it mid-flight.
type spaceRun struct {
	c       *Cloudlet
	pes     int
	rate    float64  // MIPS while running
	started sim.Time // when this run segment began
	event   *sim.Event
	finish  func() // completion callback for this slot, built once
}

// NewSpaceShared returns a space-shared scheduler bound to vm on eng.
func NewSpaceShared(eng *sim.Engine, vm *VM, onFinish FinishFunc) *SpaceShared {
	if eng == nil || vm == nil {
		panic("cloud: NewSpaceShared with nil engine or VM")
	}
	return &SpaceShared{eng: eng, vm: vm, onFinish: onFinish, freePEs: vm.PEs}
}

// Name implements CloudletScheduler.
func (s *SpaceShared) Name() string { return "space-shared" }

// Resident implements CloudletScheduler.
func (s *SpaceShared) Resident() int { return s.busy + len(s.queue) - s.head }

// Submit implements CloudletScheduler.
func (s *SpaceShared) Submit(c *Cloudlet) {
	if c.Status != CloudletCreated {
		panic(fmt.Sprintf("cloud: cloudlet %d submitted twice (status %v)", c.ID, c.Status))
	}
	c.VM = s.vm
	c.SubmitTime = s.eng.Now()
	c.Status = CloudletQueued
	s.queue = append(s.queue, c)
	s.dispatch()
}

// dispatch starts queued cloudlets while PEs are free.
func (s *SpaceShared) dispatch() {
	now := s.eng.Now()
	for s.head < len(s.queue) {
		c := s.queue[s.head]
		need := c.PEs
		if need > s.vm.PEs {
			// The cloudlet can never get more PEs than the VM has; run it on
			// all of them rather than deadlocking the queue.
			need = s.vm.PEs
		}
		if need > s.freePEs {
			break
		}
		s.queue[s.head] = nil
		s.head++
		s.freePEs -= need
		c.Status = CloudletRunning
		c.StartTime = now
		run := s.slot()
		run.c, run.pes, run.rate, run.started = c, need, s.vm.MIPS*float64(need), now
		run.event = s.eng.Schedule(c.remaining/run.rate, sim.PriorityRelease, run.finish)
		s.busy++
	}
	// Move the waiting tail to the front once the consumed prefix is at
	// least as long, so each queued cloudlet is copied O(1) times amortized.
	if s.head > 0 && 2*s.head >= len(s.queue) {
		n := copy(s.queue, s.queue[s.head:])
		clear(s.queue[n:])
		s.queue = s.queue[:n]
		s.head = 0
	}
}

// slot returns a free execution slot, adding one when all are busy. Every
// running cloudlet holds at least one PE, so there are never more slots
// than PEs.
func (s *SpaceShared) slot() *spaceRun {
	for k := range s.running {
		if s.running[k].c == nil {
			return &s.running[k]
		}
	}
	k := len(s.running)
	s.running = append(s.running, spaceRun{finish: func() { s.finish(k) }})
	return &s.running[k]
}

// finish retires the cloudlet in slot k and refills the PEs.
func (s *SpaceShared) finish(k int) {
	run := &s.running[k]
	c := run.c
	run.c, run.event = nil, nil
	s.busy--
	c.remaining = 0
	c.Status = CloudletFinished
	c.FinishTime = s.eng.Now()
	s.freePEs += run.pes
	if s.onFinish != nil {
		s.onFinish(c)
	}
	s.dispatch()
}

// Drain implements CloudletScheduler. Running cloudlets keep the progress
// made up to now; queued cloudlets are returned untouched.
func (s *SpaceShared) Drain() []*Cloudlet {
	now := s.eng.Now()
	var out []*Cloudlet
	for k := range s.running {
		run := &s.running[k]
		if run.c == nil {
			continue
		}
		c := run.c
		run.event.Cancel()
		done := run.rate * (now - run.started)
		c.remaining -= done
		if c.remaining < 0 {
			c.remaining = 0
		}
		s.freePEs += run.pes
		out = append(out, c)
		run.c, run.event = nil, nil
	}
	s.busy = 0
	out = append(out, s.queue[s.head:]...)
	clear(s.queue)
	s.queue, s.head = s.queue[:0], 0
	for _, c := range out {
		c.interrupt()
	}
	// Deterministic order for callers that iterate (slot order above).
	sortCloudletsByID(out)
	return out
}

// sortCloudletsByID orders a drained batch deterministically.
func sortCloudletsByID(cls []*Cloudlet) {
	sort.Slice(cls, func(i, j int) bool { return cls[i].ID < cls[j].ID })
}

// SchedulerFactory builds a cloudlet scheduler for one VM; the broker uses
// it to bind every VM at run start.
type SchedulerFactory func(eng *sim.Engine, vm *VM, onFinish FinishFunc) CloudletScheduler

// TimeSharedFactory is the SchedulerFactory for TimeShared.
func TimeSharedFactory(eng *sim.Engine, vm *VM, onFinish FinishFunc) CloudletScheduler {
	return NewTimeShared(eng, vm, onFinish)
}

// SpaceSharedFactory is the SchedulerFactory for SpaceShared.
func SpaceSharedFactory(eng *sim.Engine, vm *VM, onFinish FinishFunc) CloudletScheduler {
	return NewSpaceShared(eng, vm, onFinish)
}
