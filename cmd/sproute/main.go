// Command sproute answers point-to-point shortest path and distance
// queries on a road network using any of the implemented techniques.
//
// Usage:
//
//	sproute -preset CO -method ch -s 12 -t 4711
//	sproute -gr map.gr -co map.co -method tnr -s 0 -t 99 -path
//
// With -server, sproute is an HTTP client for a running spserve instead:
//
//	sproute -server http://localhost:8080 -sources 0,1,2 -targets 40,41
//	sproute -server http://localhost:8080 -sources 0 -targets 41 -ndjson -path
//
// Client mode POSTs /v1/batch/route. -ndjson requests the chunked
// NDJSON streaming response and consumes it line by line (bounded client
// memory regardless of path length); the exit status is non-zero when the
// server's in-band marker reports a truncated stream — e.g. the
// route-vertex budget ran out — so scripts can tell a complete matrix
// from a cut one.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"roadnet"
)

func main() {
	var (
		preset  = flag.String("preset", "", "Table 1 dataset preset name")
		grPath  = flag.String("gr", "", "DIMACS .gr file")
		coPath  = flag.String("co", "", "DIMACS .co file")
		method  = flag.String("method", "ch", "technique: dijkstra, ch, tnr, silc, pcpd, alt, arcflags")
		source  = flag.Int("s", 0, "source vertex id")
		target  = flag.Int("t", 1, "target vertex id")
		path    = flag.Bool("path", false, "print the full vertex path")
		queries = flag.Int("repeat", 1, "repeat the query to report a stable timing")
		srvURL  = flag.String("server", "", "spserve base URL: query it over HTTP instead of building a local index")
		sources = flag.String("sources", "", "client mode: comma-separated source vertex ids")
		targets = flag.String("targets", "", "client mode: comma-separated target vertex ids")
		ndjson  = flag.Bool("ndjson", false, "client mode: stream the response as NDJSON (bounded memory, in-band truncation marker)")
	)
	flag.Parse()

	if *srvURL != "" {
		os.Exit(runClient(*srvURL, *sources, *targets, *ndjson, *path))
	}

	g, err := load(*preset, *grPath, *coPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	n := g.NumVertices()
	if *source < 0 || *source >= n || *target < 0 || *target >= n {
		fmt.Fprintf(os.Stderr, "vertex ids must be in [0, %d)\n", n)
		os.Exit(2)
	}

	buildStart := time.Now()
	idx, err := roadnet.NewIndex(roadnet.Method(*method), g, roadnet.Config{})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("built %s index in %.2fs (%d vertices, %d edges)\n",
		*method, time.Since(buildStart).Seconds(), n, g.NumEdges())

	s, t := roadnet.VertexID(*source), roadnet.VertexID(*target)
	start := time.Now()
	var dist int64
	var vertices []roadnet.VertexID
	for i := 0; i < *queries; i++ {
		if *path {
			vertices, dist = idx.ShortestPath(s, t)
		} else {
			dist = idx.Distance(s, t)
		}
	}
	elapsed := time.Since(start) / time.Duration(*queries)

	if dist >= roadnet.Infinity {
		fmt.Printf("%d -> %d: unreachable (%.1f microsec/query)\n", s, t, float64(elapsed.Nanoseconds())/1e3)
		return
	}
	fmt.Printf("%d -> %d: distance %d (%.1f microsec/query)\n", s, t, dist, float64(elapsed.Nanoseconds())/1e3)
	if *path {
		fmt.Printf("path (%d vertices):", len(vertices))
		for i, v := range vertices {
			if i > 0 && i%12 == 0 {
				fmt.Println()
			}
			fmt.Printf(" %d", v)
		}
		fmt.Println()
	}
}

func load(preset, grPath, coPath string) (*roadnet.Graph, error) {
	if preset != "" {
		return roadnet.GeneratePreset(preset)
	}
	if grPath == "" || coPath == "" {
		return nil, fmt.Errorf("need -preset, or both -gr and -co")
	}
	gr, err := os.Open(grPath)
	if err != nil {
		return nil, err
	}
	defer gr.Close()
	co, err := os.Open(coPath)
	if err != nil {
		return nil, err
	}
	defer co.Close()
	return roadnet.LoadDIMACS(gr, co)
}
