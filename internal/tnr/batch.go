package tnr

import (
	"context"

	"roadnet/internal/cancel"
	"roadnet/internal/graph"
)

// This file implements the TNR batch accelerator. A sources×targets
// distance matrix over the transit-node tables vectorizes naturally: the
// target's work in Equation 1 — fetching the cell's access-node set,
// dropping unreachable access nodes, and gathering the vertex-to-access
// distances into an operand — depends only on the target, so BatchDistance
// hoists it out of the |S|×|T| pair loop and computes it at most once per
// target per layer (lazily, so layers no pair answers from are never
// hoisted). What remains per pair is the table sweep of equation1. Pairs
// that fail the locality filter are answered by the searcher's fallback
// technique with the batch context propagated.

// lazyAccess memoizes the operands of a batch's targets on one layer: each
// is computed at most once (the batch win), but only for targets whose
// pairs actually answer from that layer's table — a batch of coarse-only
// or mostly-local pairs skips the other layers' hoisting entirely.
type lazyAccess struct {
	l    *layer
	vs   []graph.VertexID
	ea   []endpointAccess
	done []bool
}

func newLazyAccess(l *layer, vs []graph.VertexID) lazyAccess {
	return lazyAccess{l: l, vs: vs, ea: make([]endpointAccess, len(vs)), done: make([]bool, len(vs))}
}

func (la *lazyAccess) at(i int) endpointAccess {
	if !la.done[i] {
		la.ea[i].set(la.l, la.vs[i])
		la.done[i] = true
	}
	return la.ea[i]
}

// BatchDistance computes the full sources×targets distance matrix:
// table[i][j] = dist(sources[i], targets[j]), graph.Infinity for
// unreachable pairs. Table-answerable pairs run the Equation 1 sweep over
// the hoisted operands; local pairs fall back to the searcher's fallback
// technique.
// Results are bit-identical to per-pair Distance calls, and the index's
// QueryCounts advance exactly as they would for the equivalent per-pair
// queries. The sweep polls ctx every
// cancel.Interval pairs and the fallback searches poll it internally; on
// cancellation the partial matrix is discarded and ctx's error returned.
func (sr *Searcher) BatchDistance(ctx context.Context, sources, targets []graph.VertexID) ([][]int64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ix := sr.ix
	table := make([][]int64, len(sources))
	if len(sources) == 0 {
		return table, nil
	}

	tgtCoarse := newLazyAccess(ix.coarse, targets)
	var tgtFine lazyAccess
	if ix.fine != nil {
		tgtFine = newLazyAccess(ix.fine, targets)
	}

	pairs := 0
	for i, s := range sources {
		row := make([]int64, len(targets))
		for j, t := range targets {
			if err := cancel.Poll(ctx, pairs); err != nil {
				return nil, err
			}
			pairs++
			l := ix.tableLayer(s, t)
			if l == nil {
				sr.countFallback()
				d, err := sr.fallbackDistance(ctx, s, t)
				if err != nil {
					return nil, err
				}
				row[j] = d
				continue
			}
			sr.countTable()
			tgt := &tgtCoarse
			if l == ix.fine {
				tgt = &tgtFine
			}
			row[j] = sr.equation1(l, s, tgt.at(j))
		}
		table[i] = row
	}
	return table, nil
}
