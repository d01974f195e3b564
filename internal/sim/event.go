// Package sim implements a deterministic discrete-event simulation kernel.
//
// The kernel is deliberately small: simulated time is a unit-agnostic
// float64 (this repository uses seconds, converting to the paper's
// milliseconds/hours at the reporting layer), events are closures scheduled at
// absolute times, and ties are broken first by an integer priority and then
// by insertion order, so runs are fully deterministic. The future event list
// is a single binary heap held directly by the Engine.
package sim

// Time is simulated time since the start of the run (seconds by convention
// in this repository).
type Time = float64

// Standard event priorities. Lower values run first at equal timestamps.
// Keeping resource release ahead of acquisition at the same instant avoids
// spurious rejections when one cloudlet finishes exactly as another arrives.
const (
	PriorityHigh    = -100 // bookkeeping that must precede everything else
	PriorityRelease = -10  // resource release / completion
	PriorityDefault = 0
	PriorityAcquire = 10  // resource acquisition / arrival
	PriorityLow     = 100 // reporting, statistics snapshots
)

// Event is a scheduled callback. Events are one-shot: once fired or
// cancelled they never run again.
type Event struct {
	time     Time
	priority int
	seq      uint64
	fn       func()
	canceled bool
}

// Time returns the simulated time at which the event fires.
func (e *Event) Time() Time { return e.time }

// Priority returns the event's tie-break priority.
func (e *Event) Priority() int { return e.priority }

// Cancel marks the event so the engine discards it instead of firing it.
// Cancelling an already-fired event is a no-op.
func (e *Event) Cancel() { e.canceled = true }

// Canceled reports whether Cancel was called.
func (e *Event) Canceled() bool { return e.canceled }

// before reports whether e should fire before other, implementing the
// deterministic (time, priority, seq) ordering.
func (e *Event) before(other *Event) bool {
	//schedlint:ignore floateq comparators need a strict total order; epsilon equality is intransitive, and ties fall through to (priority, seq)
	if e.time != other.time {
		return e.time < other.time
	}
	if e.priority != other.priority {
		return e.priority < other.priority
	}
	return e.seq < other.seq
}
