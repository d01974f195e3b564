package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around the
// call. Spans of one operation (a figure point, a daemon request, a plan
// verdict) share a run id; ID and Parent index the run's own spans.
type Span struct {
	Run    int    `json:"run"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for the run's root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
}

// Tracer keeps spans in memory, one buffer per open run. Finishing a run
// folds its spans into per-name self-time samples and keeps the raw spans
// for the span file up to a cap, so a long traced run holds only its open
// runs and a bounded sample. A nil *Tracer records nothing, which is how the
// untraced run shares the traced run's code. It is not safe for concurrent
// use: only the benchmark's driving goroutine records spans.
type Tracer struct {
	origin  time.Time
	nextRun int
	open    map[int][]Span
	self    map[string][]float64 // seconds
	kept    []Span
	maxKept int
	dropped int
}

// NewTracer returns a tracer whose span file keeps at most maxKept spans.
func NewTracer(maxKept int) *Tracer {
	return &Tracer{
		origin:  time.Now(),
		open:    map[int][]Span{},
		self:    map[string][]float64{},
		maxKept: maxKept,
	}
}

func (t *Tracer) now() int64 { return int64(time.Since(t.origin)) }

// NewRun allocates a run id.
func (t *Tracer) NewRun() int {
	if t == nil {
		return 0
	}
	t.nextRun++
	return t.nextRun
}

// Begin opens a span named name under parent (-1 for the run's root) and
// returns its id.
func (t *Tracer) Begin(run, parent int, name string) int {
	if t == nil {
		return -1
	}
	spans := t.open[run]
	id := len(spans)
	t.open[run] = append(spans, Span{Run: run, ID: id, Parent: parent, Name: name, Start: t.now(), End: -1})
	return id
}

// End closes span id of run.
func (t *Tracer) End(run, id int) {
	if t == nil {
		return
	}
	t.open[run][id].End = t.now()
}

// Record adds a span whose bounds were observed rather than bracketed, such
// as a state change seen by polling.
func (t *Tracer) Record(run, parent int, name string, start, end time.Time) {
	if t == nil {
		return
	}
	spans := t.open[run]
	t.open[run] = append(spans, Span{
		Run: run, ID: len(spans), Parent: parent, Name: name,
		Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin)),
	})
}

// FinishRun folds run's spans into self-time samples. Spans still open are
// closed at the current time.
func (t *Tracer) FinishRun(run int) {
	if t == nil {
		return
	}
	spans, ok := t.open[run]
	if !ok {
		return
	}
	delete(t.open, run)
	now := t.now()
	for i := range spans {
		if spans[i].End < 0 {
			spans[i].End = now
		}
	}
	for i, s := range selfTimes(spans) {
		name := spans[i].Name
		t.self[name] = append(t.self[name], float64(s)/1e9)
	}
	room := t.maxKept - len(t.kept)
	if room > len(spans) {
		room = len(spans)
	}
	if room < 0 {
		room = 0
	}
	t.kept = append(t.kept, spans[:room]...)
	t.dropped += len(spans) - room
}

// Close finishes every run still open, in run order.
func (t *Tracer) Close() {
	if t == nil {
		return
	}
	runs := make([]int, 0, len(t.open))
	for r := range t.open {
		runs = append(runs, r)
	}
	sort.Ints(runs)
	for _, r := range runs {
		t.FinishRun(r)
	}
}

// Self returns the self-time samples, in seconds, of every finished span
// named name.
func (t *Tracer) Self(name string) []float64 {
	if t == nil {
		return nil
	}
	return t.self[name]
}

// WriteFile writes the kept spans as JSON lines, preceded by a header line
// that states how many spans were dropped past the cap.
func (t *Tracer) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	err = enc.Encode(map[string]int{"kept": len(t.kept), "dropped": t.dropped})
	for i := 0; err == nil && i < len(t.kept); i++ {
		err = enc.Encode(t.kept[i])
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing spans to %s: %w", path, err)
	}
	return nil
}

// selfTimes returns each span's duration minus the part of its interval
// that its direct children cover. Children may overlap each other or stick
// out of their parent; only the covered part inside the parent counts, once.
// spans[i].ID must equal i and every Parent must index the same slice.
func selfTimes(spans []Span) []int64 {
	children := make([][]Span, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]int64, len(spans))
	for i, p := range spans {
		out[i] = (p.End - p.Start) - covered(p.Start, p.End, children[i])
	}
	return out
}

// covered returns the length of the union of the kids' intervals clipped to
// [lo, hi].
func covered(lo, hi int64, kids []Span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
	var total int64
	curLo, curHi := int64(0), int64(0)
	have := false
	for _, k := range kids {
		s, e := max(k.Start, lo), min(k.End, hi)
		if e <= s {
			continue
		}
		if have && s <= curHi {
			curHi = max(curHi, e)
			continue
		}
		if have {
			total += curHi - curLo
		}
		curLo, curHi, have = s, e, true
	}
	if have {
		total += curHi - curLo
	}
	return total
}
