package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "harness.round", ID: -1, Parent: -1, Start: 0, End: 100},
		{Name: "harness.publish", ID: 0, Parent: 0, Start: 10, End: 90},
		{Name: "client.flush", ID: 0, Parent: 1, Start: 20, End: 50},
		{Name: "service.ingest", ID: 0, Parent: 2, Start: 25, End: 45},
		{Name: "supervisor.poll", ID: 0, Parent: 1, Start: 60, End: 70},
	}
	want := []int64{20, 40, 10, 20, 10}
	self := selfTimes(spans)
	var total int64
	for i := range spans {
		if self[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, self[i], want[i])
		}
		total += self[i]
	}
	if total != 100 {
		t.Errorf("self times sum to %d, want the root's 100", total)
	}
}

func TestSelfTimesOverlapAndEscape(t *testing.T) {
	// Overlapping children are covered once, and a child running past its
	// parent is clipped to it.
	spans := []span{
		{Name: "a.p", Parent: -1, Start: 0, End: 100},
		{Name: "b.x", Parent: 0, Start: 10, End: 40},
		{Name: "c.y", Parent: 0, Start: 30, End: 60},
		{Name: "d.z", Parent: 0, Start: 90, End: 120},
		{Name: "e.w", Parent: 0, Start: 70, End: 70},
	}
	self := selfTimes(spans)
	if self[0] != 100-50-10 {
		t.Errorf("parent self time = %d, want 40", self[0])
	}
	if self[3] != 30 || self[4] != 0 {
		t.Errorf("leaf self times = %d, %d, want their durations 30, 0", self[3], self[4])
	}
}

func TestLayerSelfError(t *testing.T) {
	// The layer spans cover the whole round: their self times sum to the
	// wall time exactly.
	spans := []span{
		{Name: "harness.round", ID: -1, Parent: -1, Start: 0, End: 100},
		{Name: "harness.publish", ID: 0, Parent: 0, Start: 0, End: 100},
		{Name: "client.flush", ID: 0, Parent: 1, Start: 0, End: 60},
		{Name: "service.ingest", ID: 0, Parent: 2, Start: 10, End: 50},
		{Name: "supervisor.poll", ID: 0, Parent: 1, Start: 60, End: 100},
	}
	if e := layerSelfError(spans, 100); e != 0 {
		t.Errorf("fully covered round: error %v, want 0", e)
	}

	// A gap between layer spans is harness self time, which no layer
	// accounts for: 10 of 100 ns untimed fails the check.
	spans[4].Start = 70
	if e := layerSelfError(spans, 100); !near(e, 0.1) || e <= selfSumTolerance {
		t.Errorf("10ns gap in a 100ns round: error %v, want 0.1 (over the %v tolerance)", e, selfSumTolerance)
	}

	// So is wall time outside the root span.
	spans[4].Start = 60
	if e := layerSelfError(spans, 200); !near(e, 0.5) {
		t.Errorf("root span covers half the wall time: error %v, want 0.5", e)
	}
}

func TestRecorder(t *testing.T) {
	var nilRec *recorder
	if i := nilRec.begin("x.y", 0, -1); i != -1 {
		t.Fatalf("nil recorder begin = %d, want -1", i)
	}
	nilRec.end(-1) // must not panic

	r := newRecorder(4)
	root := r.begin("harness.round", -1, -1)
	child := r.begin("client.add", 0, root)
	r.end(child)
	r.add("memsim.access", 0, root, r.spans[child].End, r.spans[child].End+5)
	r.end(root)
	if len(r.spans) != 3 || r.spans[child].Parent != root {
		t.Fatalf("spans = %+v", r.spans)
	}
	for _, s := range r.spans {
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	if l := r.spans[child].layer(); l != "client" {
		t.Errorf("layer = %q, want client", l)
	}

	dir := t.TempDir()
	path, err := writeSpans(filepath.Join(dir, "spans"), "w", 7, r.spans)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(b), "\n"); lines != 4 {
		t.Errorf("span file has %d lines, want header + 3", lines)
	}
}
