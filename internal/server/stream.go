// Batch response streaming. Both batch endpoints append into one pooled
// reply buffer (writer.go) in one of two framings, chosen once per request:
//
//   - JSON document (the default): the exact bytes json.Encoder would
//     produce for {"sources":[...],"targets":[...],"<matrix>":[[...],...]}
//     (trailing newline included), so clients cannot tell it is streamed.
//   - NDJSON lines (Accept: application/x-ndjson): a header line with the
//     echoed id lists, one line per matrix row (distances) or per matrix
//     cell carrying its i/j indices (routes), and a final status line —
//     {"done":true}, or a {"truncated":...} marker when the stream was cut
//     short, so a consumer always knows whether it saw the whole matrix.
//
// The buffer goes out in streamBufSize chunks as it fills, and whole at
// NDJSON row boundaries and at the end, so resident memory is bounded by
// the buffer, not by path length or matrix size: batch route drains one
// lazy core.PathIterator at a time into it. Errors are two-phase. While
// the response fits one chunk nothing has been sent, and a failed query
// gets a real status (413 for a blown vertex budget). After, the JSON
// document aborts the connection (http.ErrAbortHandler), the only honest
// signal a single document has left, while NDJSON closes the current cell
// with "truncated":true and appends the marker line.
package server

import (
	"errors"
	"net/http"
	"strings"

	"roadnet/internal/graph"
)

// streamBufSize is the chunk the stream writes in.
const streamBufSize = 32 << 10

// errVertexBudget aborts a batch whose paths exceed the response budget.
var errVertexBudget = errors.New("batch route response exceeds the vertex budget")

// stream is the state of one batch response; the embedded reply holds
// what has not been written yet.
type stream struct {
	*reply
	w      *responseWriter
	m      *serverMetrics
	lines  bool  // NDJSON lines; false = one JSON document
	budget int64 // path vertices the response may still carry
}

// newStream picks the framing the client asked for and appends the part
// both share: the echoed id lists, then either matrix — the opening of the
// document's matrix member — or the end of the NDJSON header line.
func (s *Server) newStream(w *responseWriter, r *http.Request, matrix string, q batchQuery) *stream {
	st := &stream{reply: newReply(), w: w, m: s.m, budget: s.routeVertexBudget,
		lines: strings.Contains(r.Header.Get("Accept"), "application/x-ndjson")}
	st.b = appendIDs(st.b, `{"sources":`, q.sources)
	st.b = appendIDs(st.b, `,"targets":`, q.targets)
	if st.lines {
		w.Header().Set("Content-Type", "application/x-ndjson")
		st.b = append(st.b, "}\n"...)
	} else {
		w.Header()["Content-Type"] = jsonContentType
		st.b = append(st.b, matrix...)
	}
	st.spill()
	return st
}

// spill writes the buffer's leading streamBufSize chunks once more bytes
// follow them, as a bufio.Writer of that size would. It runs after every
// element and before fail asks whether anything was sent.
func (st *stream) spill() {
	for len(st.b) > streamBufSize {
		_, _ = st.w.Write(st.b[:streamBufSize])
		st.b = st.b[:copy(st.b, st.b[streamBufSize:])]
	}
}

// flush writes everything buffered: at NDJSON row boundaries, so slow
// consumers see finished rows, and at the end.
func (st *stream) flush() {
	st.spill()
	if len(st.b) > 0 {
		_, _ = st.w.Write(st.b)
		st.b = st.b[:0]
	}
}

// row appends row i of the distance matrix, -1 marking unreachable pairs,
// as a matrix element or as a {"i":N,"distances":[...]} line.
func (st *stream) row(i int, row []int64) {
	if st.lines {
		st.b = appendInt(st.b, `{"i":`, int64(i))
		st.b = append(st.b, `,"distances":`...)
	} else if i > 0 {
		st.b = append(st.b, ',')
	}
	st.b = append(st.b, '[')
	for k, d := range row {
		if d >= graph.Infinity {
			d = -1
		}
		st.b = appendInt(st.b, sep(k), d)
		st.spill()
	}
	st.b = append(st.b, ']')
	if st.lines {
		st.b = append(st.b, "}\n"...)
		st.flush()
	}
}

// cell drains one OpenPath iterator into the stream as cell (i, j) of the
// route matrix, {"reachable":R,"distance":D,"vertices":[...]} with the
// vertices omitted when unreachable, as element j of its row or as a line
// carrying "i" and "j". An aborted walk or a spent budget returns an error,
// the NDJSON line closed with "truncated":true, the document left for fail.
func (st *stream) cell(i, j int, it graph.PathIterator, d int64) error {
	end := "}"
	if st.lines {
		end = "}\n"
		st.b = appendInt(st.b, `{"i":`, int64(i))
		st.b = appendInt(st.b, `,"j":`, int64(j))
		st.b = append(st.b, ',')
	} else {
		st.b = append(append(st.b, sep(j)...), '{')
	}
	if it == nil {
		st.b = append(st.b, `"reachable":false,"distance":0`...)
		st.b = append(st.b, end...)
		return nil
	}
	st.b = appendInt(st.b, `"reachable":true,"distance":`, d)
	st.b = append(st.b, `,"vertices":[`...)
	var fail error
	for n := 0; ; n++ {
		v, ok := it.Next()
		if !ok {
			fail = it.Err()
			break
		}
		if st.budget <= 0 {
			fail = errVertexBudget
			break
		}
		st.budget--
		st.b = appendInt(st.b, sep(n), int64(v))
		st.spill()
	}
	if fail != nil {
		if st.lines {
			st.b = append(st.b, "],\"truncated\":true}\n"...)
		}
		return fail
	}
	st.b = append(st.b, ']')
	st.b = append(st.b, end...)
	return nil
}

// end closes a complete response.
func (st *stream) end() {
	if st.lines {
		st.b = append(st.b, "{\"done\":true}\n"...)
	} else {
		st.b = append(st.b, "]}\n"...)
	}
	st.flush()
	st.free()
}

// fail ends a batch route response that err cut short after cells whole
// cells. While nothing has been sent the buffer is discarded and the error
// returned, for the route adapter to answer with a real status. Otherwise
// NDJSON ends with its marker line and the JSON document, a 200 header
// and a partial document on the wire, kills the connection.
func (st *stream) fail(err error, cells int) error {
	st.spill()
	budget := errors.Is(err, errVertexBudget)
	if budget {
		st.m.countBudgetHit()
	}
	if st.w.status == 0 {
		st.free()
		if budget {
			return &apiError{http.StatusRequestEntityTooLarge,
				err.Error() + "; request fewer pairs, or stream with Accept: application/x-ndjson"}
		}
		return err
	}
	st.m.countRows("batch_route", cells)
	if !st.lines {
		st.m.countTruncation("json")
		panic(http.ErrAbortHandler)
	}
	st.m.countTruncation("ndjson")
	st.b = appendString(st.b, `{"truncated":true,"error":`, err.Error())
	st.b = append(st.b, "}\n"...)
	st.flush()
	st.free()
	return nil
}
