package core_test

import (
	"bytes"
	"runtime"
	"testing"

	"roadnet/internal/core"
	"roadnet/internal/testutil"
	"roadnet/internal/tnr"
)

func TestSaveLoadRoundtrip(t *testing.T) {
	g := testutil.SmallRoad(400, 901)
	pairs := testutil.SamplePairs(g, 100, 161)
	for _, m := range core.FileMethods() {
		ix, err := core.BuildIndex(m, g, core.Config{TNR: tnr.Options{GridSize: 8}})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := core.SaveIndex(ix, &buf); err != nil {
			t.Fatalf("save %s: %v", m, err)
		}
		loaded, _, err := core.LoadIndexFile(m, testutil.TempFile(t, "index", buf.Bytes()), g, false)
		if err != nil {
			t.Fatalf("load %s: %v", m, err)
		}
		if loaded.Method() != m {
			t.Errorf("loaded method %s, want %s", loaded.Method(), m)
		}
		testutil.CheckDistancesAgainstDijkstra(t, g, pairs, loaded.Distance)
	}
}

// TestSaveDeterministic: what Save writes depends on the graph alone. All
// six kinds are built and saved under GOMAXPROCS 1 and 4, and each kind's
// two files must be the same bytes with no field patched: neither a clock
// reading nor the build's schedule reaches a file.
func TestSaveDeterministic(t *testing.T) {
	g := testutil.SmallRoad(600, 941)
	var runs [2][]savedKind
	for i, procs := range []int{1, 4} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			runs[i] = saveKinds(t, g)
		}()
	}
	for k, sk := range runs[0] {
		if !bytes.Equal(sk.data, runs[1][k].data) {
			t.Errorf("%s: GOMAXPROCS 1 and 4 save different bytes", sk.name)
		}
	}
}

func TestSaveUnsupportedMethods(t *testing.T) {
	g := testutil.SmallRoad(200, 903)
	for _, m := range []core.Method{core.MethodDijkstra, core.MethodALT, core.MethodArcFlags} {
		ix, err := core.BuildIndex(m, g, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := core.SaveIndex(ix, &buf); err == nil {
			t.Errorf("%s: expected serialization-unsupported error", m)
		}
		if _, _, err := core.LoadIndexFile(m, testutil.TempFile(t, "index", nil), g, false); err == nil {
			t.Errorf("%s: expected load-unsupported error", m)
		}
	}
}

func TestLoadWrongMethodStream(t *testing.T) {
	g := testutil.SmallRoad(200, 905)
	chIx, err := core.BuildIndex(core.MethodCH, g, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := core.SaveIndex(chIx, &buf); err != nil {
		t.Fatal(err)
	}
	// A CH file fed to the SILC loader must fail on the fourcc check.
	if _, _, err := core.LoadIndexFile(core.MethodSILC, testutil.TempFile(t, "ch.idx", buf.Bytes()), g, false); err == nil {
		t.Error("cross-method load must fail")
	}
}
