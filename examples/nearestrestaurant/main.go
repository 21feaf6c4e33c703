// Nearest restaurant: the paper's §2 motivating scenario for distance
// queries — "a user has a list of her favorite Italian restaurants, and she
// wants to identify the restaurant that is closest to her working place q.
// She may issue a distance query from q to each of the restaurants to find
// the nearest one."
//
// The example compares the baseline (bidirectional Dijkstra) with CH and
// TNR on exactly this workload, showing why indexed methods matter for
// interactive map services.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"roadnet"
)

func main() {
	g := roadnet.Generate(roadnet.GenParams{N: 25000, Seed: 7})
	rng := rand.New(rand.NewSource(99))

	// The user's workplace and her favorite restaurants, as vertices.
	workplace := roadnet.VertexID(rng.Intn(g.NumVertices()))
	restaurants := make([]roadnet.VertexID, 40)
	for i := range restaurants {
		restaurants[i] = roadnet.VertexID(rng.Intn(g.NumVertices()))
	}
	fmt.Printf("network: %d vertices; %d candidate restaurants\n",
		g.NumVertices(), len(restaurants))

	for _, method := range []roadnet.Method{roadnet.Dijkstra, roadnet.CH, roadnet.TNR} {
		idx, err := roadnet.NewIndex(method, g, roadnet.Config{})
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		best, bestDist := roadnet.VertexID(-1), roadnet.Infinity
		for _, r := range restaurants {
			if d := idx.Distance(workplace, r); d < bestDist {
				best, bestDist = r, d
			}
		}
		elapsed := time.Since(start)
		fmt.Printf("%-9s nearest = vertex %-6d travel time %-6d (%8.1f microsec for %d queries)\n",
			method, best, bestDist, float64(elapsed.Microseconds()), len(restaurants))
	}

	// Bonus (Appendix A): k-nearest-neighbor queries over *all* vertices,
	// not just a candidate list — "which 5 points in the network are
	// closest to me?" With every vertex a candidate, the 5 nearest are the
	// first 5 a Dijkstra from q settles, so the locator asks no index.
	q := roadnet.VertexID(1234)
	loc := roadnet.NewSpatialLocator(g)
	start := time.Now()
	nearest, err := loc.KNearest(context.Background(), q, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n5-nearest-neighbors of vertex %d (%.1f microsec):\n",
		q, float64(time.Since(start).Microseconds()))
	for i, nb := range nearest {
		fmt.Printf("  %d. vertex %-6d travel time %d\n", i+1, nb.V, nb.Dist)
	}
}
