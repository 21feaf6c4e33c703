package ch

import (
	"context"
	"slices"

	"roadnet/internal/cancel"
	"roadnet/internal/graph"
)

// hopFrame is one pending shortcut segment (u, w) of the unpack stack.
type hopFrame struct{ u, w graph.VertexID }

// unpackIter lazily expands the augmented (shortcut-level) path of the
// last upward search into original-graph vertices. The augmented path is
// short — one hop per shortcut level, bounded by the search depth — but
// its expansion can be thousands of vertices, so the expansion is the part
// worth streaming: shortcuts are split through their middle-vertex tags on
// demand with an explicit stack, in the pre-order of §3.2's recursive
// expansion (c1 -> (v3,v1),(v1,v8)). The stack holds one frame per
// unexpanded level, so resident state is O(shortcut nesting depth), not
// O(path length).
type unpackIter struct {
	h   *Hierarchy
	ctx context.Context
	aug []graph.VertexID
	hop int // next augmented hop to expand

	stack   []hopFrame
	started bool
	emitted int
	err     error
	done    bool
}

// Next implements graph.PathIterator, polling ctx every cancel.Interval
// emitted vertices.
func (it *unpackIter) Next() (graph.VertexID, bool) {
	if it.done {
		return 0, false
	}
	if !it.started {
		it.started = true
		it.emitted++
		return it.aug[0], true
	}
	for {
		if len(it.stack) == 0 {
			if it.hop+1 >= len(it.aug) {
				it.done = true
				return 0, false
			}
			it.stack = append(it.stack, hopFrame{it.aug[it.hop], it.aug[it.hop+1]})
			it.hop++
		}
		f := it.stack[len(it.stack)-1]
		it.stack = it.stack[:len(it.stack)-1]
		if middle, ok := it.h.middleOf(f.u, f.w); ok && middle >= 0 {
			// Shortcut: expand (u, mid) before (mid, w), so push in reverse.
			it.stack = append(it.stack,
				hopFrame{graph.VertexID(middle), f.w},
				hopFrame{f.u, graph.VertexID(middle)})
			continue
		}
		// Original edge: emit its head.
		if err := cancel.Poll(it.ctx, it.emitted); err != nil {
			it.err = err
			it.done = true
			return 0, false
		}
		it.emitted++
		return f.w, true
	}
}

// Err implements graph.PathIterator.
func (it *unpackIter) Err() error { return it.err }

// OpenPath runs the upward search and returns a PathIterator over the
// exact shortest path in the original graph (shortcuts unpacked lazily)
// plus its length, or (nil, Infinity, nil) when t is unreachable. The
// iterator reads the searcher's parent arrays and scratch buffers and is
// invalidated by this searcher's next query.
func (s *Searcher) OpenPath(ctx context.Context, from, to graph.VertexID) (graph.PathIterator, int64, error) {
	if err := s.runCtx(ctx, from, to); err != nil || s.lastMeet < 0 {
		return nil, graph.Infinity, err
	}
	// Augmented path: from -> meet (side 0, reversed) then meet -> to. A
	// from == to query ran no search, and its path is the one vertex.
	aug := append(s.augBuf[:0], s.lastMeet)
	if from != to {
		aug = s.side[0].AppendParents(aug, s.lastMeet)
		slices.Reverse(aug)
		aug = s.side[1].AppendParents(aug, s.lastMeet)
	}
	s.augBuf = aug
	s.unpack = unpackIter{h: s.h, ctx: ctx, aug: aug, stack: s.unpack.stack[:0]}
	return &s.unpack, s.lastDist, nil
}
