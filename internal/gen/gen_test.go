package gen

import (
	"testing"

	"roadnet/internal/graph"
)

func TestGenerateBasicProperties(t *testing.T) {
	g := Generate(Params{N: 2000, Seed: 42})
	n := g.NumVertices()
	if n < 1500 || n > 2100 {
		t.Errorf("vertex count %d far from target 2000", n)
	}
	if _, count := graph.ConnectedComponents(g); count != 1 {
		t.Errorf("generated network must be connected: %d components", count)
	}
	if d := g.MaxDegree(); d > 8 {
		t.Errorf("max degree %d exceeds road-network bound 8", d)
	}
	// Road networks are sparse: m/n should sit well below 4.
	ratio := float64(g.NumEdges()) / float64(n)
	if ratio < 1.0 || ratio > 3.0 {
		t.Errorf("edge/vertex ratio %.2f outside road-network range", ratio)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Params{N: 500, Seed: 7})
	b := Generate(Params{N: 500, Seed: 7})
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed must give identical sizes")
	}
	ea, eb := a.Edges(), b.Edges()
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d differs: %+v vs %+v", i, ea[i], eb[i])
		}
	}
	c := Generate(Params{N: 500, Seed: 8})
	if c.NumEdges() == a.NumEdges() && len(ea) > 0 {
		// Sizes can coincide; edge lists almost surely differ.
		diff := false
		for i, e := range c.Edges() {
			if e != ea[i] {
				diff = true
				break
			}
		}
		if !diff {
			t.Error("different seeds produced identical networks")
		}
	}
}

func TestGenerateWeightsPositive(t *testing.T) {
	g := Generate(Params{N: 1000, Seed: 3})
	for _, e := range g.Edges() {
		if e.Weight < 1 {
			t.Fatalf("edge %+v has non-positive weight", e)
		}
	}
}

func TestGenerateHighwayHierarchy(t *testing.T) {
	// Highway edges must be faster per unit length than local edges:
	// weights on highway rows should be smaller for similar spans.
	g := Generate(Params{N: 10000, Seed: 9})
	var minW, maxW graph.Weight = 1 << 30, 0
	for _, e := range g.Edges() {
		if e.Weight < minW {
			minW = e.Weight
		}
		if e.Weight > maxW {
			maxW = e.Weight
		}
	}
	if float64(maxW) < 2*float64(minW) {
		t.Errorf("weight spread [%d, %d] too flat: no road hierarchy", minW, maxW)
	}
}

func TestGenerateTinyTarget(t *testing.T) {
	g := Generate(Params{N: 1, Seed: 1})
	if g.NumVertices() < 1 {
		t.Fatal("degenerate target must still yield vertices")
	}
	if _, count := graph.ConnectedComponents(g); count != 1 {
		t.Errorf("tiny network must be connected: %d components", count)
	}
}

func TestPresets(t *testing.T) {
	if len(Presets) != 10 {
		t.Fatalf("want 10 presets mirroring Table 1, got %d", len(Presets))
	}
	for i := 1; i < len(Presets); i++ {
		if Presets[i].TargetN <= Presets[i-1].TargetN {
			t.Errorf("presets must grow: %s (%d) after %s (%d)",
				Presets[i].Name, Presets[i].TargetN, Presets[i-1].Name, Presets[i-1].TargetN)
		}
		if Presets[i].PaperVertices <= Presets[i-1].PaperVertices {
			t.Errorf("paper vertex counts must grow at %s", Presets[i].Name)
		}
	}
	if _, err := PresetByName("DE"); err != nil {
		t.Error(err)
	}
	if _, err := PresetByName("XX"); err == nil {
		t.Error("unknown preset should error")
	}
	names := SmallPresetNames()
	if len(names) != 4 || names[0] != "DE" || names[3] != "CO" {
		t.Errorf("SmallPresetNames = %v", names)
	}
}

func TestGeneratePresetSmallest(t *testing.T) {
	g, err := GeneratePreset("DE")
	if err != nil {
		t.Fatal(err)
	}
	if _, count := graph.ConnectedComponents(g); count != 1 {
		t.Errorf("DE preset must be connected: %d components", count)
	}
	if n := g.NumVertices(); n < 800 || n > 1100 {
		t.Errorf("DE preset size %d far from 1000", n)
	}
	if _, err := GeneratePreset("nope"); err == nil {
		t.Error("unknown preset should error")
	}
}

func TestRandomConnected(t *testing.T) {
	g := RandomConnected(100, 50, 20, 5)
	if g.NumVertices() != 100 {
		t.Fatalf("n = %d, want 100", g.NumVertices())
	}
	if _, count := graph.ConnectedComponents(g); count != 1 {
		t.Errorf("RandomConnected must be connected: %d components", count)
	}
	if g.NumEdges() < 99 {
		t.Errorf("edges %d < spanning tree size", g.NumEdges())
	}
	for _, e := range g.Edges() {
		if e.Weight < 1 || e.Weight > 20 {
			t.Errorf("edge weight %d outside [1, 20]", e.Weight)
		}
	}
	// Degenerate inputs.
	if g := RandomConnected(0, 0, 0, 2); g.NumVertices() != 1 {
		t.Error("n<1 should clamp to 1 vertex")
	}
}
