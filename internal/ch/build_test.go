package ch

import (
	"bytes"
	"testing"

	"roadnet/internal/testutil"
)

// TestBuildDeterministic builds one graph twice and requires the same index
// byte for byte, and with it the same search spaces: the arc order of the
// upward CSR once followed Go's map iteration order, which made
// settled-vertex counts differ from build to build.
func TestBuildDeterministic(t *testing.T) {
	g := testutil.SmallRoad(1600, 31)
	a, b := Build(g, Options{}), Build(g, Options{})
	b.buildTime = a.buildTime // the one field that is a clock reading
	var abuf, bbuf bytes.Buffer
	if err := a.Save(&abuf); err != nil {
		t.Fatal(err)
	}
	if err := b.Save(&bbuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(abuf.Bytes(), bbuf.Bytes()) {
		t.Error("two builds of the same graph serialize differently")
	}
	sa, sb := a.NewSearcher(), b.NewSearcher()
	var settledA, settledB int
	for _, p := range testutil.SamplePairs(g, 400, 9) {
		sa.Distance(p[0], p[1])
		sb.Distance(p[0], p[1])
		settledA += sa.SettledLast()
		settledB += sb.SettledLast()
	}
	if settledA != settledB {
		t.Errorf("two builds settle %d and %d vertices over the same pairs", settledA, settledB)
	}
}
