package main

import "testing"

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	rec := newRecorder(8)
	root := rec.add("root", 0, -1, 0, 100)
	a := rec.add("a", 0, root, 10, 40)   // covers 30
	rec.add("b", 0, root, 30, 60)        // overlaps a by 10: adds 20
	rec.add("c", 0, root, 90, 130)       // runs past the parent: adds 10
	rec.add("grandchild", 0, a, 10, 20)  // belongs to a, not to root
	rec.add("elsewhere", 1, -1, 0, 1000) // another request's root
	rec.add("before", 0, root, -20, 5)   // starts before the parent: adds 5
	self := rec.selfTimes()

	want := map[string]int64{
		"root":       100 - (30 + 20 + 10 + 5),
		"a":          30 - 10,
		"b":          30,
		"c":          40,
		"grandchild": 10,
		"elsewhere":  1000,
		"before":     25,
	}
	for _, s := range rec.spans {
		if self[s.ID] != want[s.Name] {
			t.Errorf("self time of %s = %d, want %d", s.Name, self[s.ID], want[s.Name])
		}
	}
}

func TestSelfTimesOfNestedChainAddUpToRoot(t *testing.T) {
	rec := newRecorder(4)
	root := rec.add("transport", 0, -1, 0, 230)
	srv := rec.add("server", 0, root, 0, 40)
	core := rec.add("core", 0, srv, 0, 25)
	rec.add("search", 0, core, 0, 20)
	var sum float64
	for _, s := range rec.summarize() {
		sum += s.SelfUs * float64(s.Count)
	}
	if got, want := sum, 0.230; got < want-1e-9 || got > want+1e-9 {
		t.Errorf("self times add up to %v us, want the root's %v us", got, want)
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var rec *recorder
	if id := rec.add("x", 0, -1, 0, 1); id != -1 {
		t.Errorf("nil recorder returned id %d", id)
	}
	if rec.len() != 0 || len(rec.summarize()) != 0 {
		t.Error("nil recorder reports spans")
	}
}
