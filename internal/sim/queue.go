package sim

// eventHeap is the engine's future event list: a binary min-heap of events
// ordered by (time, priority, insertion sequence). O(log n) push/pop with
// excellent constants at the event counts this simulator reaches
// (millions).
type eventHeap []*Event

// peek returns the earliest event without removing it, or nil if empty.
func (h eventHeap) peek() *Event {
	if len(h) == 0 {
		return nil
	}
	return h[0]
}

// push inserts an event.
func (h *eventHeap) push(e *Event) {
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

// pop removes and returns the earliest event. It panics on empty.
func (h *eventHeap) pop() *Event {
	q := *h
	if len(q) == 0 {
		panic("sim: pop on empty event heap")
	}
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q[last] = nil
	*h = q[:last]
	if last > 0 {
		h.down(0)
	}
	return top
}

func (h eventHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].before(h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (h eventHeap) down(i int) {
	n := len(h)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		least := left
		if right := left + 1; right < n && h[right].before(h[left]) {
			least = right
		}
		if !h[least].before(h[i]) {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}
