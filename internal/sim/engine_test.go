package sim

import (
	"testing"
)

func TestEngineRunsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(30, PriorityDefault, func() { order = append(order, 3) })
	e.Schedule(10, PriorityDefault, func() { order = append(order, 1) })
	e.Schedule(20, PriorityDefault, func() { order = append(order, 2) })
	end := e.Run()
	if end != 30 {
		t.Fatalf("end time: got %v want 30", end)
	}
	for i, v := range order {
		if v != i+1 {
			t.Fatalf("order: %v", order)
		}
	}
}

func TestEngineClockAdvancesDuringEvent(t *testing.T) {
	e := NewEngine()
	var at Time
	e.Schedule(12.5, PriorityDefault, func() { at = e.Now() })
	e.Run()
	if at != 12.5 {
		t.Fatalf("Now inside event: got %v want 12.5", at)
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var hits []Time
	var rec func()
	n := 0
	rec = func() {
		hits = append(hits, e.Now())
		n++
		if n < 5 {
			e.Schedule(10, PriorityDefault, rec)
		}
	}
	e.Schedule(0, PriorityDefault, rec)
	e.Run()
	want := []Time{0, 10, 20, 30, 40}
	if len(hits) != len(want) {
		t.Fatalf("hits: %v", hits)
	}
	for i := range want {
		if hits[i] != want[i] {
			t.Fatalf("hit %d: got %v want %v", i, hits[i], want[i])
		}
	}
}

func TestEngineSameTimePriorityOrder(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Schedule(5, PriorityAcquire, func() { order = append(order, "acquire") })
	e.Schedule(5, PriorityRelease, func() { order = append(order, "release") })
	e.Run()
	if len(order) != 2 || order[0] != "release" || order[1] != "acquire" {
		t.Fatalf("priority order violated: %v", order)
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(1, PriorityDefault, func() { fired = true })
	ev.Cancel()
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if e.Fired() != 0 {
		t.Fatalf("Fired: got %d want 0", e.Fired())
	}
}

func TestEngineCancelFromEarlierEvent(t *testing.T) {
	e := NewEngine()
	fired := false
	later := e.Schedule(10, PriorityDefault, func() { fired = true })
	e.Schedule(5, PriorityDefault, func() { later.Cancel() })
	e.Run()
	if fired {
		t.Fatal("event cancelled at t=5 still fired at t=10")
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, tm := range []Time{1, 2, 3, 4, 5} {
		tm := tm
		e.Schedule(tm, PriorityDefault, func() { fired = append(fired, tm) })
	}
	e.RunUntil(3)
	if len(fired) != 3 {
		t.Fatalf("fired: %v", fired)
	}
	if e.Now() != 3 {
		t.Fatalf("Now after RunUntil: %v", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("Pending: %d", e.Pending())
	}
	e.Run()
	if len(fired) != 5 {
		t.Fatalf("fired after Run: %v", fired)
	}
}

func TestEngineRunUntilAdvancesIdleClock(t *testing.T) {
	e := NewEngine()
	e.RunUntil(100)
	if e.Now() != 100 {
		t.Fatalf("idle RunUntil: Now=%v", e.Now())
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 10; i++ {
		e.Schedule(Time(i), PriorityDefault, func() {
			count++
			if count == 4 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 4 {
		t.Fatalf("count after Stop: %d", count)
	}
	if !e.Stopped() {
		t.Fatal("Stopped() false after Stop")
	}
	if e.Step() {
		t.Fatal("Step after Stop fired an event")
	}
}

func TestEngineScheduleNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewEngine().Schedule(-1, PriorityDefault, func() {})
}

func TestEngineScheduleAtPastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, PriorityDefault, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for past ScheduleAt")
			}
		}()
		e.ScheduleAt(5, PriorityDefault, func() {})
	})
	e.Run()
}

func TestEngineNilCallbackPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewEngine().Schedule(0, PriorityDefault, nil)
}

// TestEngineTracer and TestFuncTracer keep the names of the tests that
// once read these counts through an event tracer; the engine now keeps
// the count itself in Fired. Fired counts every event that ran, whatever
// its priority, and never a cancelled one.
func TestEngineTracer(t *testing.T) {
	e := NewEngine()
	e.Schedule(1, PriorityRelease, func() {})
	e.Schedule(2, PriorityAcquire, func() {})
	e.Schedule(3, PriorityAcquire, func() {})
	if !e.Step() || e.Fired() != 1 {
		t.Fatalf("after one Step: Fired = %d", e.Fired())
	}
	e.Run()
	if e.Fired() != 3 {
		t.Fatalf("Fired = %d, want 3", e.Fired())
	}
}

func TestFuncTracer(t *testing.T) {
	e := NewEngine()
	e.Schedule(0, PriorityDefault, func() {})
	e.Schedule(1, PriorityDefault, func() {}).Cancel()
	e.Schedule(2, PriorityLow, func() {})
	e.Run()
	if e.Fired() != 2 {
		t.Fatalf("Fired = %d, want 2 (the cancelled event must not count)", e.Fired())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after Run", e.Pending())
	}
}

func BenchmarkEngineSelfScheduling(b *testing.B) {
	e := NewEngine()
	var tick func()
	tick = func() { e.Schedule(1, PriorityDefault, tick) }
	e.Schedule(0, PriorityDefault, tick)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
