package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestEngineClockMonotoneProperty: whatever the schedule, observed event
// times never decrease.
func TestEngineClockMonotoneProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := 1 + int(nRaw)%200
		r := rand.New(rand.NewSource(seed))
		e := NewEngine()
		last := Time(-1)
		ok := true
		var spawn func(depth int)
		spawn = func(depth int) {
			e.Schedule(r.Float64()*10, r.Intn(5)-2, func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
				if depth > 0 && r.Intn(2) == 0 {
					spawn(depth - 1)
				}
			})
		}
		for i := 0; i < n; i++ {
			spawn(2)
		}
		e.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestEngineManyCancellations: cancelled events never fire even under heavy
// mixing, and Fired counts only live events.
func TestEngineManyCancellations(t *testing.T) {
	e := NewEngine()
	r := rand.New(rand.NewSource(9))
	live := 0
	var events []*Event
	for i := 0; i < 2000; i++ {
		ev := e.Schedule(r.Float64()*100, 0, func() {})
		events = append(events, ev)
	}
	for i, ev := range events {
		if i%3 == 0 {
			ev.Cancel()
		} else {
			live++
		}
	}
	e.Run()
	if int(e.Fired()) != live {
		t.Fatalf("fired %d, want %d live", e.Fired(), live)
	}
}

// TestEngineCancelInsideHandler: an event cancelling a same-time later
// event must win when it sorts first.
func TestEngineCancelInsideHandler(t *testing.T) {
	e := NewEngine()
	fired := false
	second := e.Schedule(5, PriorityLow, func() { fired = true })
	e.Schedule(5, PriorityHigh, func() { second.Cancel() })
	e.Run()
	if fired {
		t.Fatal("same-time cancellation failed")
	}
}

// TestEngineRunUntilRepeated: successive RunUntil calls advance in steps
// and never re-fire events.
func TestEngineRunUntilRepeated(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for i := 1; i <= 10; i++ {
		tm := Time(i)
		e.Schedule(tm, 0, func() { fired = append(fired, tm) })
	}
	for cut := Time(2); cut <= 12; cut += 2 {
		e.RunUntil(cut)
	}
	if len(fired) != 10 {
		t.Fatalf("fired %d events", len(fired))
	}
	for i, tm := range fired {
		if tm != Time(i+1) {
			t.Fatalf("order broken: %v", fired)
		}
	}
	if e.Now() != 12 {
		t.Fatalf("final clock: %v", e.Now())
	}
}

// TestEngineStressFuzz drives a randomized open workload and checks global
// invariants: all live events fire exactly once, in order.
func TestEngineStressFuzz(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		r := rand.New(rand.NewSource(seed))
		e := NewEngine()
		scheduled, firedCount := 0, 0
		var maybe func()
		maybe = func() {
			firedCount++
			for k := 0; k < r.Intn(3); k++ {
				if scheduled < 3000 {
					scheduled++
					e.Schedule(r.Float64(), r.Intn(3), maybe)
				}
			}
		}
		for i := 0; i < 50; i++ {
			scheduled++
			e.Schedule(r.Float64()*10, 0, maybe)
		}
		e.Run()
		if firedCount != scheduled {
			t.Fatalf("seed %d: fired %d of %d", seed, firedCount, scheduled)
		}
		if e.Pending() != 0 {
			t.Fatalf("seed %d: %d events stuck", seed, e.Pending())
		}
	}
}
