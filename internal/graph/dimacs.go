package graph

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"roadnet/internal/geom"
)

// This file implements readers and writers for the 9th DIMACS
// Implementation Challenge formats used by the paper's datasets (§4.2):
//
//	.gr  distance/time graph:  "p sp <n> <m>" header, "a <u> <v> <w>" arcs
//	.co  coordinates:          "p aux sp co <n>" header, "v <id> <x> <y>"
//
// DIMACS vertex ids are 1-based; this package uses 0-based dense ids.
// DIMACS .gr files list each undirected road edge as two opposite arcs;
// ReadGR collapses duplicate arcs into single undirected edges.

// ReadGR parses a DIMACS .gr stream into an edge list, returning the vertex
// count and the undirected edges, each with U < V, sorted by (U, V): edge
// ids, arc order and every index built on the graph are then the same on
// every load of the same text.
func ReadGR(r io.Reader) (n int, edges []Edge, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	type key struct{ u, v VertexID }
	seen := make(map[key]Weight)
	line := 0
	declaredArcs := -1
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		switch text[0] {
		case 'c': // comment
		case 'p':
			fields := strings.Fields(text)
			if len(fields) != 4 || fields[1] != "sp" {
				return 0, nil, fmt.Errorf("dimacs: line %d: malformed problem line %q", line, text)
			}
			if n, err = strconv.Atoi(fields[2]); err != nil {
				return 0, nil, fmt.Errorf("dimacs: line %d: bad vertex count: %v", line, err)
			}
			if declaredArcs, err = strconv.Atoi(fields[3]); err != nil {
				return 0, nil, fmt.Errorf("dimacs: line %d: bad arc count: %v", line, err)
			}
		case 'a':
			fields := strings.Fields(text)
			if len(fields) != 4 {
				return 0, nil, fmt.Errorf("dimacs: line %d: malformed arc line %q", line, text)
			}
			u64, err1 := strconv.ParseInt(fields[1], 10, 32)
			v64, err2 := strconv.ParseInt(fields[2], 10, 32)
			w64, err3 := strconv.ParseInt(fields[3], 10, 32)
			if err1 != nil || err2 != nil || err3 != nil {
				return 0, nil, fmt.Errorf("dimacs: line %d: non-integer arc field in %q", line, text)
			}
			if n == 0 {
				return 0, nil, fmt.Errorf("dimacs: line %d: arc before problem line", line)
			}
			if u64 < 1 || u64 > int64(n) || v64 < 1 || v64 > int64(n) {
				return 0, nil, fmt.Errorf("dimacs: line %d: vertex id out of range in %q", line, text)
			}
			if w64 <= 0 {
				return 0, nil, fmt.Errorf("dimacs: line %d: non-positive weight in %q", line, text)
			}
			u, v, w := VertexID(u64-1), VertexID(v64-1), Weight(w64)
			if u == v {
				continue // drop self loops; road data occasionally has them
			}
			if u > v {
				u, v = v, u
			}
			k := key{u, v}
			if old, ok := seen[k]; !ok || w < old {
				seen[k] = w
			}
		default:
			return 0, nil, fmt.Errorf("dimacs: line %d: unknown record %q", line, text)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, nil, fmt.Errorf("dimacs: %w", err)
	}
	if declaredArcs < 0 {
		return 0, nil, fmt.Errorf("dimacs: missing problem line")
	}
	edges = make([]Edge, 0, len(seen))
	for k, w := range seen {
		edges = append(edges, Edge{U: k.u, V: k.v, Weight: w})
	}
	slices.SortFunc(edges, func(a, b Edge) int {
		return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V))
	})
	return n, edges, nil
}

// ReadCO parses a DIMACS .co coordinate stream for n vertices.
func ReadCO(r io.Reader, n int) ([]geom.Point, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	coords := make([]geom.Point, n)
	assigned := make([]bool, n)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		switch text[0] {
		case 'c', 'p': // comments and the aux problem line carry no data we need
		case 'v':
			fields := strings.Fields(text)
			if len(fields) != 4 {
				return nil, fmt.Errorf("dimacs: line %d: malformed vertex line %q", line, text)
			}
			id, err1 := strconv.ParseInt(fields[1], 10, 32)
			x, err2 := strconv.ParseInt(fields[2], 10, 32)
			y, err3 := strconv.ParseInt(fields[3], 10, 32)
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, fmt.Errorf("dimacs: line %d: non-integer field in %q", line, text)
			}
			if id < 1 || id > int64(n) {
				return nil, fmt.Errorf("dimacs: line %d: vertex id %d out of range", line, id)
			}
			coords[id-1] = geom.Point{X: int32(x), Y: int32(y)}
			assigned[id-1] = true
		default:
			return nil, fmt.Errorf("dimacs: line %d: unknown record %q", line, text)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dimacs: %w", err)
	}
	for v, ok := range assigned {
		if !ok {
			return nil, fmt.Errorf("dimacs: vertex %d has no coordinates", v+1)
		}
	}
	return coords, nil
}

// ReadDIMACS reads a .gr stream and a .co stream and builds the graph.
func ReadDIMACS(gr, co io.Reader) (*Graph, error) {
	n, edges, err := ReadGR(gr)
	if err != nil {
		return nil, err
	}
	coords, err := ReadCO(co, n)
	if err != nil {
		return nil, err
	}
	return FromEdges(coords, edges)
}

// WriteGR writes g in DIMACS .gr format, emitting each undirected edge as
// two opposite arcs, as the challenge files do.
func WriteGR(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "c generated by roadnet\n")
	fmt.Fprintf(bw, "p sp %d %d\n", g.NumVertices(), 2*g.NumEdges())
	for _, e := range g.Edges() {
		fmt.Fprintf(bw, "a %d %d %d\n", e.U+1, e.V+1, e.Weight)
		fmt.Fprintf(bw, "a %d %d %d\n", e.V+1, e.U+1, e.Weight)
	}
	return bw.Flush()
}

// WriteCO writes g's coordinates in DIMACS .co format.
func WriteCO(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "c generated by roadnet\n")
	fmt.Fprintf(bw, "p aux sp co %d\n", g.NumVertices())
	for v := 0; v < g.NumVertices(); v++ {
		p := g.Coord(VertexID(v))
		fmt.Fprintf(bw, "v %d %d %d\n", v+1, p.X, p.Y)
	}
	return bw.Flush()
}
