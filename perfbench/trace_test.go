package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestSelfTimesNestedAndOverlapping(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100},
		// Two children overlapping each other on [20, 30].
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "b", Start: 20, End: 40},
		// A grandchild only reduces its own parent, not the root.
		{ID: 3, Parent: 2, Name: "c", Start: 25, End: 35},
		// A child sticking out of its parent counts only inside it.
		{ID: 4, Parent: 0, Name: "d", Start: 90, End: 120},
		// A child fully inside another child adds nothing to the root's cover.
		{ID: 5, Parent: 0, Name: "e", Start: 12, End: 18},
	}
	got := selfTimes(spans)
	// root: covered = [10,40] ∪ [90,100] = 30 + 10.
	want := []int64{100 - 40, 20, 20 - 10, 10, 30, 6}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
}

func TestSelfTimesDisjointAndEmpty(t *testing.T) {
	if got := selfTimes(nil); len(got) != 0 {
		t.Fatalf("selfTimes(nil) = %v", got)
	}
	spans := []Span{
		{ID: 0, Parent: -1, Start: 5, End: 50},
		{ID: 1, Parent: 0, Start: 40, End: 45},
		{ID: 2, Parent: 0, Start: 5, End: 10},
		{ID: 3, Parent: 0, Start: 60, End: 70}, // wholly outside
	}
	want := []int64{45 - 10, 5, 5, 10}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
}

func TestTracerFoldsRunsAndCapsKeptSpans(t *testing.T) {
	tr := NewTracer(3)
	run := tr.NewRun()
	root := tr.Begin(run, -1, "root")
	child := tr.Begin(run, root, "child")
	tr.End(run, child)
	tr.End(run, root)
	tr.FinishRun(run)

	open := tr.NewRun()
	tr.Begin(open, -1, "left-open")
	tr.Close()

	for _, name := range []string{"root", "child", "left-open"} {
		if n := len(tr.Self(name)); n != 1 {
			t.Errorf("%s: %d self-time samples, want 1", name, n)
		}
	}
	if r, c := tr.Self("root")[0], tr.Self("child")[0]; r < 0 || c < 0 {
		t.Errorf("negative self time: root %v child %v", r, c)
	}

	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Scan()
	var head map[string]int
	if err := json.Unmarshal(sc.Bytes(), &head); err != nil {
		t.Fatal(err)
	}
	if head["kept"] != 3 || head["dropped"] != 0 {
		t.Errorf("header %v, want 3 kept and 0 dropped", head)
	}
	var spans []Span
	for sc.Scan() {
		var s Span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		if s.End < s.Start {
			t.Errorf("span %+v ends before it starts", s)
		}
		spans = append(spans, s)
	}
	if len(spans) != 3 || spans[1].Parent != 0 || spans[2].Name != "left-open" {
		t.Errorf("spans = %+v", spans)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *Tracer
	run := tr.NewRun()
	id := tr.Begin(run, -1, "x")
	tr.End(run, id)
	tr.FinishRun(run)
	tr.Close()
	if tr.Self("x") != nil {
		t.Fatal("nil tracer returned samples")
	}
}
