package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "window", Start: 0, End: 100 * ms, Parent: -1},
		{Name: "collect.aggregate", Start: 10 * ms, End: 40 * ms, Parent: 0},
		{Name: "core.diagnose", Start: 50 * ms, End: 90 * ms, Parent: 0},
		// Grandchild: subtracted from its parent only.
		{Name: "repair.suggest", Start: 60 * ms, End: 70 * ms, Parent: 2},
		// Overlapping children count once.
		{Name: "window", Start: 200 * ms, End: 300 * ms, Parent: -1},
		{Name: "ingest.next", Start: 210 * ms, End: 250 * ms, Parent: 4},
		{Name: "ingest.next", Start: 230 * ms, End: 260 * ms, Parent: 4},
		// A child reaching past its parent is clipped to it.
		{Name: "collect.frame", Start: 290 * ms, End: 320 * ms, Parent: 4},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"window":            (100 - 30 - 40 + 100 - 50 - 10) * ms,
		"collect.aggregate": 30 * ms,
		"core.diagnose":     30 * ms,
		"repair.suggest":    10 * ms,
		"ingest.next":       70 * ms,
		"collect.frame":     30 * ms,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self(%s) = %v, want %v", name, got[name], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("self times for %d names, want %d: %v", len(got), len(want), got)
	}
}

func TestTracerRecordsNesting(t *testing.T) {
	tr := newTracer()
	root := tr.begin("window", -1, "a/0")
	child := tr.begin("core.diagnose", root, "a/0")
	tr.end(child, 3)
	tr.end(root, 0)
	if len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[1].N != 3 || tr.spans[1].Window != "a/0" {
		t.Fatalf("spans %+v", tr.spans)
	}
	for _, s := range tr.spans {
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	var none *tracer
	if i := none.begin("x", -1, ""); i != -1 {
		t.Errorf("nil tracer returned handle %d", i)
	}
	none.end(-1, 1) // must not panic
	if got := layerOf("collect.publish"); got != "collect" {
		t.Errorf("layerOf = %q", got)
	}
}
