package main

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"roadnet"
)

func TestOracleAgreesWithEveryTechniqueOnASmallGraph(t *testing.T) {
	g := roadnet.Generate(roadnet.GenParams{N: 300, Seed: 9})
	sets, err := roadnet.LInfQuerySets(g, roadnet.WorkloadConfig{PairsPerSet: 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := roadnet.NewIndex(roadnet.Dijkstra, g, roadnet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, qs := range sets {
		for i, want := range oracleDistances(g, qs.Pairs, 2) {
			p := qs.Pairs[i]
			if got := idx.Distance(p.S, p.T); got != want {
				t.Fatalf("%d->%d: oracle %d, bidirectional Dijkstra %d", p.S, p.T, want, got)
			}
			path, _ := idx.ShortestPath(p.S, p.T)
			if err := checkPath(g, path, p.S, p.T, want); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestCheckPathRejectsBrokenPaths(t *testing.T) {
	g := roadnet.Generate(roadnet.GenParams{N: 300, Seed: 9})
	idx, _ := roadnet.NewIndex(roadnet.Dijkstra, g, roadnet.Config{})
	s, tt := roadnet.VertexID(0), roadnet.VertexID(g.NumVertices()-1)
	path, d := idx.ShortestPath(s, tt)
	if len(path) < 4 {
		t.Fatalf("need a path of a few hops, got %d vertices", len(path))
	}
	if err := checkPath(g, path, s, tt, d); err != nil {
		t.Fatalf("a correct path was rejected: %v", err)
	}
	skipped := append(append([]roadnet.VertexID(nil), path[:1]...), path[2:]...)
	for name, c := range map[string]struct {
		path []roadnet.VertexID
		want int64
	}{
		"wrong length":       {path, d + 1},
		"hop is not an edge": {skipped, d},
		"wrong end":          {path[:len(path)-1], d},
		"empty":              {nil, d},
		"unreachable":        {path, roadnet.Infinity},
	} {
		if err := checkPath(g, c.path, s, tt, c.want); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// A deliberately wrong expected answer has to show up as a failed
// operation, in process and over HTTP alike.
func TestWrongExpectedAnswerRaisesFailShare(t *testing.T) {
	g := roadnet.Generate(roadnet.GenParams{N: 300, Seed: 9})
	idx, _ := roadnet.NewIndex(roadnet.CH, g, roadnet.Config{})
	sets, _ := roadnet.LInfQuerySets(g, roadnet.WorkloadConfig{PairsPerSet: 8, Seed: 2})
	qs := sets[len(sets)-1]
	c := &cell{method: roadnet.CH, set: qs.Name, pairs: qs.Pairs, want: oracleDistances(g, qs.Pairs, 1)}
	for _, paths := range []bool{false, true} {
		if tl := verifyCell(g, idx, c, paths); tl.failed != 0 || tl.attempted != len(qs.Pairs) {
			t.Fatalf("paths=%v: right answers counted as %d failed of %d", paths, tl.failed, tl.attempted)
		}
	}
	c.want[3]++
	for _, paths := range []bool{false, true} {
		tl := verifyCell(g, idx, c, paths)
		if tl.failed != 1 || tl.failShare() != 1/float64(len(qs.Pairs)) {
			t.Errorf("paths=%v: one wrong expectation gave %d failed, fail_share %g", paths, tl.failed, tl.failShare())
		}
		if bad := timeCell(idx, c, paths); bad != 1 {
			t.Errorf("paths=%v: the timed pass counted %d wrong answers, want 1", paths, bad)
		}
	}

	p := qs.Pairs[0]
	body, _ := json.Marshal(distanceBody{From: p.S, To: p.T, Reachable: true, Distance: c.want[0]})
	r := request{Kind: kindDistance, Method: "GET", Path: "/v1/distance", S: p.S, T: p.T, WantDist: c.want[0]}
	var tl tally
	tl.check(checkResponse(g, &r, http.StatusOK, body))
	r.WantDist++
	tl.check(checkResponse(g, &r, http.StatusOK, body))
	tl.check(checkResponse(g, &r, http.StatusTooManyRequests, []byte(`{"error":"slow down"}`)))
	if tl.attempted != 3 || tl.failed != 2 {
		t.Errorf("right, wrong and refused answers counted as %d failed of %d, want 2 of 3", tl.failed, tl.attempted)
	}
	if len(tl.reasons) != 2 || !strings.Contains(tl.reasons[1], "429") {
		t.Errorf("reasons kept: %q", tl.reasons)
	}
}

func TestCheckBatchBodyComparesEveryCell(t *testing.T) {
	src, tgt := []roadnet.VertexID{1, 2}, []roadnet.VertexID{3}
	want := [][]int64{{7}, {roadnet.Infinity}}
	good := batchBody{Sources: src, Targets: tgt, Distances: [][]int64{{7}, {-1}}}
	if err := checkBatchBody(good, src, tgt, want); err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string]batchBody{
		"wrong cell":  {Sources: src, Targets: tgt, Distances: [][]int64{{8}, {-1}}},
		"reachable":   {Sources: src, Targets: tgt, Distances: [][]int64{{7}, {9}}},
		"missing row": {Sources: src, Targets: tgt, Distances: [][]int64{{7}}},
		"wrong echo":  {Sources: tgt, Targets: tgt, Distances: [][]int64{{7}, {-1}}},
	} {
		if err := checkBatchBody(bad, src, tgt, want); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
