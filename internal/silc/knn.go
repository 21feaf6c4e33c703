package silc

import (
	"context"
	"fmt"
	"sort"

	"roadnet/internal/graph"
)

// k-nearest-neighbor queries. The paper's Appendix A notes that "Samet et
// al. show that SILC can also be used to achieve superior performance for
// nearest neighbor queries": the per-region structure admits best-first
// distance browsing. When Options.EnableNearest is set, Build additionally
// records, per stored region, the minimum network distance from the source
// to any vertex of the region. NearestK then scans regions in ascending
// bound order, refining candidates with exact path walks, and stops as
// soon as no unexplored region can beat the current k-th candidate.
//
// Results are deterministic: candidates are ranked by (distance, vertex
// id), so the answer is the unique (dist, id)-minimal k-set — bit-identical
// to a bounded-Dijkstra oracle ranked the same way, whatever the region
// scan order.

// Neighbor is one (vertex, network distance) result of a k-NN or range
// query — the module's only such type: core and the roadnet facade alias
// it, and the JSON tags are the wire shape of the server's /v1/knn and
// /v1/within answers.
type Neighbor struct {
	V    graph.VertexID `json:"vertex"`
	Dist int64          `json:"distance"`
}

// NearestEnabled reports whether the index was built with
// Options.EnableNearest and therefore answers NearestK queries.
func (ix *Index) NearestEnabled() bool { return ix.minDist != nil }

// NearestK returns the k vertices nearest to s by network distance, in
// ascending (distance, id) order (excluding s itself). It requires an
// index built with EnableNearest.
func (ix *Index) NearestK(s graph.VertexID, k int) ([]Neighbor, error) {
	best, _, err := ix.NearestKPruned(context.Background(), s, k, nil)
	return best, err
}

// NearestKPruned is NearestK with geometric candidate seeding: the exact
// distances of the seed vertices (typically the geometrically nearest k,
// from an R-tree) are resolved first, so the k-th-candidate bound is tight
// before any region is scanned and most regions prune without a single
// path walk. The returned count is the number of exact distance
// evaluations performed — the pruning-effectiveness measure the benchmark
// gates compare against a linear scan's n-1. Seeding never changes the
// answer, only the work; ctx cancels mid-query.
func (ix *Index) NearestKPruned(ctx context.Context, s graph.VertexID, k int, seeds []graph.VertexID) ([]Neighbor, int, error) {
	if ix.minDist == nil {
		return nil, 0, fmt.Errorf("silc: index built without EnableNearest")
	}
	if k <= 0 {
		return nil, 0, nil
	}
	starts := ix.starts[s]
	bounds := ix.minDist[s]

	// Candidate set: the k best (distance, id) pairs seen so far, tracked
	// with a sorted slice (k is small in practice).
	var best []Neighbor
	worst := func() (int64, graph.VertexID) {
		if len(best) < k {
			return graph.Infinity, graph.VertexID(1<<31 - 1)
		}
		last := best[len(best)-1]
		return last.Dist, last.V
	}
	// beats reports whether (d, v) ranks strictly before the current k-th
	// candidate — the deterministic admission rule.
	beats := func(d int64, v graph.VertexID) bool {
		wd, wv := worst()
		return d < wd || (d == wd && v < wv)
	}
	add := func(v graph.VertexID, d int64) {
		i := sort.Search(len(best), func(j int) bool {
			return best[j].Dist > d || (best[j].Dist == d && best[j].V >= v)
		})
		if i < len(best) && best[i].V == v && best[i].Dist == d {
			return // seed rediscovered by a region scan
		}
		best = append(best, Neighbor{})
		copy(best[i+1:], best[i:])
		best[i] = Neighbor{V: v, Dist: d}
		if len(best) > k {
			best = best[:k]
		}
	}

	examined := 0
	for _, u := range seeds {
		if u == s {
			continue
		}
		d, err := ix.DistanceContext(ctx, s, u)
		if err != nil {
			return nil, examined, err
		}
		examined++
		if d < graph.Infinity && beats(d, u) {
			add(u, d)
		}
	}

	// Regions sorted by their lower bound.
	type region struct {
		idx   int
		bound int64
	}
	regions := make([]region, 0, len(starts))
	for i := range starts {
		if bounds[i] == invalidMinDist {
			continue // unreachable region
		}
		regions = append(regions, region{idx: i, bound: int64(bounds[i])})
	}
	sort.Slice(regions, func(a, b int) bool { return regions[a].bound < regions[b].bound })

	for _, r := range regions {
		if wd, _ := worst(); len(best) == k && r.bound > wd {
			break // no unexplored region can improve the k-th candidate
		}
		lo, hi := ix.regionOrderRange(s, r.idx)
		for j := lo; j < hi; j++ {
			u := ix.order[j]
			if u == s {
				continue
			}
			d, err := ix.DistanceContext(ctx, s, u)
			if err != nil {
				return nil, examined, err
			}
			examined++
			if d < graph.Infinity && beats(d, u) {
				add(u, d)
			}
		}
	}
	return best, examined, nil
}

// regionOrderRange returns the index range of ix.order covered by region
// regionIdx of source s: codes in [starts[regionIdx], starts[regionIdx+1]).
func (ix *Index) regionOrderRange(s graph.VertexID, regionIdx int) (lo, hi int) {
	starts := ix.starts[s]
	from := starts[regionIdx]
	to := uint32(0xffffffff)
	bounded := false
	if regionIdx+1 < len(starts) {
		to = starts[regionIdx+1]
		bounded = true
	}
	lo = sort.Search(len(ix.order), func(j int) bool { return ix.code[ix.order[j]] >= from })
	if !bounded {
		return lo, len(ix.order)
	}
	hi = lo + sort.Search(len(ix.order)-lo, func(j int) bool { return ix.code[ix.order[lo+j]] >= to })
	return lo, hi
}
