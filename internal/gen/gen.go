// Package gen produces seeded synthetic road networks that stand in for the
// Ninth DIMACS Implementation Challenge datasets of the paper's Table 1
// (real USA travel-time road graphs, which are not shipped with this
// repository). The generator reproduces the structural properties the
// evaluated techniques rely on:
//
//   - near-planar, degree-bounded topology (jittered grid with random edge
//     deletions and occasional diagonals),
//   - spatial coherence: edge weights are travel times derived from
//     Euclidean length, so nearby vertices have similar shortest paths
//     (what SILC and PCPD exploit),
//   - a road hierarchy: a sparse set of "highway" and "arterial" rows and
//     columns carry higher speeds, so some vertices are much more important
//     than others (what CH and TNR exploit).
//
// Generation is fully deterministic for a given Params, so every experiment
// is reproducible. A DIMACS reader in package graph lets the real datasets
// be substituted when available.
package gen

import (
	"fmt"
	"math"
	"math/rand"

	"roadnet/internal/geom"
	"roadnet/internal/graph"
)

// Spacing is the coordinate distance between adjacent grid sites.
const Spacing = 1000

// Params configures the synthetic network generator.
type Params struct {
	// N is the target number of vertices, default 1000 when not positive.
	// The generated graph has roughly N vertices (the exact count depends
	// on largest-component extraction).
	N int
	// Seed makes generation deterministic.
	Seed int64
}

// The road mix and irregularity, the same for every generated graph.
const (
	// deleteFrac is the fraction of grid edges randomly removed to create
	// irregularity.
	deleteFrac = 0.20
	// diagFrac is the probability of adding a diagonal edge at a grid
	// site, modelling non-grid roads.
	diagFrac = 0.05
	// Every highwayEvery-th and arterialEvery-th row and column carries a
	// high-speed road.
	highwayEvery, arterialEvery = 24, 6
	// jitter is the maximum coordinate perturbation as a fraction of the
	// grid spacing.
	jitter = 0.35
)

// Road speed multipliers. Weights are travel times: length / speed.
const (
	speedLocal    = 1.0
	speedArterial = 1.8
	speedHighway  = 3.2
	// weightScale divides travel times into a convenient integer range.
	weightScale = 8.0
)

// Generate builds a synthetic road network from p. The result is connected,
// undirected and degree-bounded (max degree 8 by construction).
func Generate(p Params) *graph.Graph {
	if p.N <= 0 {
		p.N = 1000
	}
	rng := rand.New(rand.NewSource(p.Seed))

	side := int(math.Ceil(math.Sqrt(float64(p.N))))
	if side < 2 {
		side = 2
	}
	cols, rows := side, side

	b := graph.NewBuilder(cols * rows)
	id := func(c, r int) graph.VertexID { return graph.VertexID(r*cols + c) }
	coords := make([]geom.Point, 0, cols*rows)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			jx := int32((rng.Float64()*2 - 1) * jitter * Spacing)
			jy := int32((rng.Float64()*2 - 1) * jitter * Spacing)
			pt := geom.Point{X: int32(c*Spacing) + jx, Y: int32(r*Spacing) + jy}
			coords = append(coords, pt)
			b.AddVertex(pt)
		}
	}

	euclid := func(a, bb geom.Point) float64 {
		dx := float64(a.X) - float64(bb.X)
		dy := float64(a.Y) - float64(bb.Y)
		return math.Sqrt(dx*dx + dy*dy)
	}
	addEdge := func(u, v graph.VertexID, speed float64) {
		w := graph.Weight(math.Round(euclid(coords[u], coords[v]) / (speed * weightScale)))
		if w < 1 {
			w = 1
		}
		// Builder rejects only self-loops/bad ids, which cannot occur here.
		_ = b.AddEdge(u, v, w)
	}
	rowSpeed := func(r int) float64 {
		switch {
		case r%highwayEvery == 0:
			return speedHighway
		case r%arterialEvery == 0:
			return speedArterial
		default:
			return speedLocal
		}
	}

	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			u := id(c, r)
			if c+1 < cols && rng.Float64() >= deleteFrac {
				addEdge(u, id(c+1, r), rowSpeed(r))
			}
			if r+1 < rows && rng.Float64() >= deleteFrac {
				addEdge(u, id(c, r+1), rowSpeed(c))
			}
			if c+1 < cols && r+1 < rows && rng.Float64() < diagFrac {
				addEdge(u, id(c+1, r+1), speedLocal)
			}
		}
	}

	g := b.Build()
	g, _ = graph.LargestComponent(g)
	return g
}

// Preset names a scaled analogue of one of the paper's Table 1 datasets.
type Preset struct {
	// Name matches the paper's dataset name (DE, NH, ..., US).
	Name string
	// Region is the paper's "Corresponding Region" column.
	Region string
	// PaperVertices and PaperEdges are the Table 1 values, kept for the
	// Table 1 reproduction printout.
	PaperVertices, PaperEdges int
	// TargetN is the scaled vertex count generated here.
	TargetN int
	// Seed fixes the generated network.
	Seed int64
}

// Presets mirrors Table 1 of the paper at roughly 1/120 scale, preserving
// the relative sizes of the ten datasets. The four smallest are the ones on
// which SILC and PCPD remain feasible, exactly as in the paper.
var Presets = []Preset{
	{Name: "DE", Region: "Delaware", PaperVertices: 48812, PaperEdges: 120489, TargetN: 1000, Seed: 101},
	{Name: "NH", Region: "New Hampshire", PaperVertices: 115055, PaperEdges: 264218, TargetN: 2400, Seed: 102},
	{Name: "ME", Region: "Maine", PaperVertices: 187315, PaperEdges: 422998, TargetN: 3900, Seed: 103},
	{Name: "CO", Region: "Colorado", PaperVertices: 435666, PaperEdges: 1057066, TargetN: 9000, Seed: 104},
	{Name: "FL", Region: "Florida", PaperVertices: 1070376, PaperEdges: 2712798, TargetN: 22000, Seed: 105},
	{Name: "CA", Region: "California and Nevada", PaperVertices: 1890815, PaperEdges: 4657742, TargetN: 39000, Seed: 106},
	{Name: "E-US", Region: "Eastern US", PaperVertices: 3598623, PaperEdges: 8778114, TargetN: 75000, Seed: 107},
	{Name: "W-US", Region: "Western US", PaperVertices: 6262104, PaperEdges: 15248146, TargetN: 130000, Seed: 108},
	{Name: "C-US", Region: "Central US", PaperVertices: 14081816, PaperEdges: 34292496, TargetN: 200000, Seed: 109},
	{Name: "US", Region: "United States", PaperVertices: 23947347, PaperEdges: 58333344, TargetN: 320000, Seed: 110},
}

// PresetByName returns the preset with the given name.
func PresetByName(name string) (Preset, error) {
	for _, p := range Presets {
		if p.Name == name {
			return p, nil
		}
	}
	return Preset{}, fmt.Errorf("gen: unknown preset %q", name)
}

// GeneratePreset generates the scaled analogue of the named Table 1 dataset.
func GeneratePreset(name string) (*graph.Graph, error) {
	p, err := PresetByName(name)
	if err != nil {
		return nil, err
	}
	return Generate(Params{N: p.TargetN, Seed: p.Seed}), nil
}

// SmallPresetNames lists the four smallest datasets, the only ones on which
// the paper could run SILC and PCPD within its 24 GB budget.
func SmallPresetNames() []string { return []string{"DE", "NH", "ME", "CO"} }
