package sim

import (
	"fmt"
	"math"
)

// Engine drives a single simulation run. It is single-threaded by design:
// run one Engine per goroutine for parallel experiments.
type Engine struct {
	now     Time
	queue   eventHeap
	seq     uint64
	fired   uint64
	stopped bool
}

// NewEngine returns an Engine at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events still queued (cancelled events may be
// included until they surface).
func (e *Engine) Pending() int { return len(e.queue) }

// Schedule registers fn to run after delay with the given priority and
// returns the Event handle (usable to Cancel). Negative delays are an error:
// the kernel never travels backwards.
func (e *Engine) Schedule(delay Time, priority int, fn func()) *Event {
	if delay < 0 || math.IsNaN(delay) {
		panic(fmt.Sprintf("sim: Schedule with invalid delay %v at t=%v", delay, e.now))
	}
	return e.ScheduleAt(e.now+delay, priority, fn)
}

// ScheduleAt registers fn to run at absolute time t.
func (e *Engine) ScheduleAt(t Time, priority int, fn func()) *Event {
	if t < e.now || math.IsNaN(t) {
		panic(fmt.Sprintf("sim: ScheduleAt %v before now %v", t, e.now))
	}
	if fn == nil {
		panic("sim: ScheduleAt with nil callback")
	}
	e.seq++
	ev := &Event{time: t, priority: priority, seq: e.seq, fn: fn}
	e.queue.push(ev)
	return ev
}

// Step fires the next event, if any, and reports whether one fired.
// Cancelled events are discarded without firing and without advancing time.
func (e *Engine) Step() bool {
	for {
		if e.stopped || len(e.queue) == 0 {
			return false
		}
		ev := e.queue.pop()
		if ev.canceled {
			continue
		}
		e.now = ev.time
		ev.fn()
		e.fired++
		return true
	}
}

// Run executes events until the queue drains or Stop is called, and returns
// the final simulated time.
func (e *Engine) Run() Time {
	for e.Step() {
	}
	return e.now
}

// RunUntil executes events with time ≤ deadline, advances the clock to
// deadline, and returns it. Events scheduled beyond the deadline stay queued.
func (e *Engine) RunUntil(deadline Time) Time {
	for {
		if e.stopped {
			return e.now
		}
		next := e.queue.peek()
		if next == nil || next.time > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
	return e.now
}

// Stop halts the run loop after the current event. Pending events remain
// queued; a stopped engine never fires again.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop was called.
func (e *Engine) Stopped() bool { return e.stopped }
