package roadnet_test

import (
	"context"
	"fmt"

	"roadnet"
)

// ExampleNewIndex shows the core workflow: generate (or load) a road
// network, build an index, and answer the paper's two query types.
func ExampleNewIndex() {
	g := roadnet.Generate(roadnet.GenParams{N: 1000, Seed: 1})
	idx, err := roadnet.NewIndex(roadnet.CH, g, roadnet.Config{})
	if err != nil {
		panic(err)
	}
	s, t := roadnet.VertexID(0), roadnet.VertexID(500)
	dist := idx.Distance(s, t)
	path, _ := idx.ShortestPath(s, t)
	fmt.Println(dist == roadnet.Infinity, len(path) > 1, path[0] == s)
	// Output: false true true
}

// ExampleDistanceMatrix computes a many-to-many table with the CH bucket
// algorithm.
func ExampleDistanceMatrix() {
	g := roadnet.Generate(roadnet.GenParams{N: 500, Seed: 2})
	idx, err := roadnet.NewIndex(roadnet.CH, g, roadnet.Config{})
	if err != nil {
		panic(err)
	}
	depots := []roadnet.VertexID{1, 2}
	customers := []roadnet.VertexID{100, 200, 300}
	matrix := roadnet.DistanceMatrix(idx, depots, customers)
	fmt.Println(len(matrix), len(matrix[0]), matrix[0][0] > 0)
	// Output: 2 3 true
}

// ExampleSpatialLocator_KNearest finds the nearest vertices by network
// distance; no index is needed, the locator runs one bounded search.
func ExampleSpatialLocator_KNearest() {
	g := roadnet.Generate(roadnet.GenParams{N: 500, Seed: 3})
	nearest, err := roadnet.NewSpatialLocator(g).KNearest(context.Background(), 42, 3)
	if err != nil {
		panic(err)
	}
	fmt.Println(len(nearest), nearest[0].Dist <= nearest[1].Dist)
	// Output: 3 true
}

// ExampleLInfQuerySets generates the paper's Q1..Q10 workloads.
func ExampleLInfQuerySets() {
	g := roadnet.Generate(roadnet.GenParams{N: 1000, Seed: 4})
	sets, err := roadnet.LInfQuerySets(g, roadnet.WorkloadConfig{PairsPerSet: 10, Seed: 1})
	if err != nil {
		panic(err)
	}
	fmt.Println(len(sets), sets[0].Name, sets[9].Name, sets[0].Lo < sets[9].Lo)
	// Output: 10 Q1 Q10 true
}
