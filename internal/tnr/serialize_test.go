package tnr_test

import (
	"bytes"
	"errors"
	"testing"

	"roadnet/internal/binio"

	"roadnet/internal/testutil"
	"roadnet/internal/tnr"
)

func TestTNRSerializationRoundtrip(t *testing.T) {
	g := testutil.SmallRoad(900, 811)
	ix := buildTNR(t, g, tnr.Options{GridSize: 16})
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	ix2, err := tnr.ReadIndex(bytes.NewReader(buf.Bytes()), g)
	if err != nil {
		t.Fatal(err)
	}
	c1, _ := ix.NumAccessNodes()
	c2, _ := ix2.NumAccessNodes()
	if c1 != c2 {
		t.Errorf("access nodes %d != %d after roundtrip", c2, c1)
	}
	testutil.CheckDistancesAgainstDijkstra(t, g, testutil.SamplePairs(g, 200, 141), ix2.NewSearcher().Distance)
	testutil.CheckPathsAgainstDijkstra(t, g, testutil.SamplePairs(g, 50, 143), ix2.NewSearcher().ShortestPath)
}

func TestTNRSerializationHybrid(t *testing.T) {
	g := testutil.SmallRoad(900, 813)
	ix := buildTNR(t, g, tnr.Options{GridSize: 8, Hybrid: true, Fallback: tnr.FallbackDijkstra})
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	ix2, err := tnr.ReadIndex(bytes.NewReader(buf.Bytes()), g)
	if err != nil {
		t.Fatal(err)
	}
	_, fine := ix2.NumAccessNodes()
	if fine == 0 {
		t.Error("hybrid fine layer lost in roundtrip")
	}
	testutil.CheckDistancesAgainstDijkstra(t, g, testutil.SamplePairs(g, 150, 147), ix2.NewSearcher().Distance)
}

func TestTNRSerializationRejectsWrongGraph(t *testing.T) {
	g := testutil.SmallRoad(400, 815)
	other := testutil.SmallRoad(900, 817)
	ix := buildTNR(t, g, tnr.Options{GridSize: 8})
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := tnr.ReadIndex(bytes.NewReader(buf.Bytes()), other); err == nil {
		t.Error("loading onto a different graph must fail")
	}
}

func TestTNRSerializationRejectsTruncation(t *testing.T) {
	g := testutil.SmallRoad(400, 819)
	ix := buildTNR(t, g, tnr.Options{GridSize: 8})
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{10, len(data) / 4, len(data) / 2, len(data) - 3} {
		if _, err := tnr.ReadIndex(bytes.NewReader(data[:cut]), g); err == nil {
			t.Errorf("stream truncated at %d must fail", cut)
		}
	}
}

func TestTNRVersionErrors(t *testing.T) {
	g := testutil.SmallRoad(400, 843)
	ix := buildTNR(t, g, tnr.Options{GridSize: 8})

	var v2 bytes.Buffer
	if err := ix.Save(&v2); err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), v2.Bytes()...)
	bad[12] = 9 // flat header version field (little-endian u32 at offset 12)
	_, err := tnr.ReadIndex(bytes.NewReader(bad), g)
	if !errors.Is(err, binio.ErrVersion) {
		t.Errorf("flat container with version 9: got %v, want binio.ErrVersion", err)
	}
}
