package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// The ordering tests run as "heap" subtests, named for the binary heap
// the engine holds as its future-event list.
func TestQueueOrdersByTime(t *testing.T) {
	t.Run("heap", func(t *testing.T) {
		var q eventHeap
		times := []Time{5, 1, 3, 2, 4, 0, 9, 7, 8, 6}
		for i, tm := range times {
			q.push(&Event{time: tm, seq: uint64(i)})
		}
		var got []Time
		for len(q) > 0 {
			got = append(got, q.pop().time)
		}
		if !sort.Float64sAreSorted(got) {
			t.Fatalf("pops not sorted: %v", got)
		}
	})
}

func TestQueueTieBreakPriorityThenSeq(t *testing.T) {
	t.Run("heap", func(t *testing.T) {
		var q eventHeap
		q.push(&Event{time: 1, priority: PriorityAcquire, seq: 1})
		q.push(&Event{time: 1, priority: PriorityRelease, seq: 2})
		q.push(&Event{time: 1, priority: PriorityRelease, seq: 3})
		q.push(&Event{time: 1, priority: PriorityHigh, seq: 4})
		want := []uint64{4, 2, 3, 1}
		for i, w := range want {
			if got := q.pop().seq; got != w {
				t.Fatalf("pop %d: got seq %d want %d", i, got, w)
			}
		}
	})
}

func TestQueuePeekMatchesPop(t *testing.T) {
	t.Run("heap", func(t *testing.T) {
		var q eventHeap
		r := rand.New(rand.NewSource(1))
		for i := 0; i < 200; i++ {
			q.push(&Event{time: r.Float64() * 1000, seq: uint64(i)})
		}
		for len(q) > 0 {
			p := q.peek()
			got := q.pop()
			if p != got {
				t.Fatalf("peek %v != pop %v", p.time, got.time)
			}
		}
		if q.peek() != nil {
			t.Fatal("peek on empty heap should return nil")
		}
	})
}

func TestQueuePopEmptyPanics(t *testing.T) {
	t.Run("heap", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic on empty pop")
			}
		}()
		var q eventHeap
		q.pop()
	})
}

// TestQueueEquivalenceProperty drives the heap with a random interleaving
// of pushes, pops and cancellations and demands the same pop order as a
// reference list stable-sorted on (time, priority, seq). Cancelled events
// stay queued, as in the engine, so they must surface in order too.
func TestQueueEquivalenceProperty(t *testing.T) {
	f := func(seed int64, ops []uint8) bool {
		r := rand.New(rand.NewSource(seed))
		var h eventHeap
		var ref []*Event
		var seq uint64
		popRef := func() *Event {
			sort.SliceStable(ref, func(i, j int) bool {
				a, b := ref[i], ref[j]
				if a.time != b.time {
					return a.time < b.time
				}
				if a.priority != b.priority {
					return a.priority < b.priority
				}
				return a.seq < b.seq
			})
			e := ref[0]
			ref = ref[1:]
			return e
		}
		for _, op := range ops {
			switch {
			case op%3 == 0 || len(h) == 0:
				seq++
				ev := &Event{
					time:     Time(r.Intn(64)), // coarse times to exercise ties
					priority: r.Intn(3) - 1,
					seq:      seq,
				}
				h.push(ev)
				ref = append(ref, ev)
			case op%3 == 1:
				ref[r.Intn(len(ref))].Cancel()
			default:
				if h.pop() != popRef() {
					return false
				}
			}
		}
		for len(h) > 0 {
			if len(ref) == 0 || h.pop() != popRef() {
				return false
			}
		}
		return len(ref) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEventQueueHeap(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	var q eventHeap
	// Steady-state hold of 1024 events.
	var seq uint64
	now := Time(0)
	for i := 0; i < 1024; i++ {
		seq++
		q.push(&Event{time: now + r.Float64()*100, seq: seq})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := q.pop()
		now = e.time
		seq++
		q.push(&Event{time: now + r.Float64()*100, seq: seq})
	}
}
