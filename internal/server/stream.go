// Batch response streaming. Both batch endpoints write through one
// fixed-size buffer in one of two framings, chosen once per request:
//
//   - JSON document (the default): the exact bytes json.Encoder would
//     produce for {"sources":[...],"targets":[...],"<matrix>":[[...],...]}
//     (trailing newline included), so clients cannot tell it is streamed.
//   - NDJSON lines (Accept: application/x-ndjson): a header line with the
//     echoed id lists, one line per matrix row (distances) or per matrix
//     cell carrying its i/j indices (routes), and a final status line —
//     {"done":true} on success, or a {"truncated":...} marker when the
//     stream was cut short, so a consumer always knows whether it saw the
//     whole matrix.
//
// Batch route drains one lazy core.PathIterator at a time into the buffer,
// so serving long paths keeps resident memory bounded by the buffer, not by
// path length or matrix size. Its error handling is two-phase. While the
// response still fits the buffer nothing has been sent, and a failed query
// is reported with a real status (see writeError; 413 for a blown vertex
// budget). Once the buffer has spilled the 200 header is on the wire: the
// JSON document then aborts the connection (http.ErrAbortHandler), which is
// the only honest signal a single-document format has left, while NDJSON
// stays well-formed by closing the current cell with "truncated":true and
// appending the marker line.
package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"strings"

	"roadnet/internal/graph"
)

// streamBufSize is the response buffer size. Small batches complete inside
// the buffer (keeping real error statuses available); anything larger
// streams through it with bounded residency.
const streamBufSize = 32 << 10

// errVertexBudget aborts a batch whose paths exceed the response budget.
var errVertexBudget = errors.New("batch route response exceeds the vertex budget")

// stream is the state of one batch response.
type stream struct {
	w       *responseWriter
	m       *serverMetrics
	bw      *bufio.Writer
	lines   bool  // NDJSON lines; false = one JSON document
	budget  int64 // path vertices the response may still carry
	scratch []byte
}

// newStream picks the framing the client asked for and writes the part
// both share: the echoed id lists, then either matrix — the opening of the
// document's matrix member — or the end of the NDJSON header line.
func (s *Server) newStream(w *responseWriter, r *http.Request, matrix string, q batchQuery) *stream {
	st := &stream{w: w, m: s.m, budget: s.routeVertexBudget, scratch: make([]byte, 0, 20),
		lines: strings.Contains(r.Header.Get("Accept"), "application/x-ndjson")}
	st.bw = bufio.NewWriterSize(w, streamBufSize)
	st.writeString(`{"sources":`)
	st.writeIDList(q.sources)
	st.writeString(`,"targets":`)
	st.writeIDList(q.targets)
	if st.lines {
		w.Header().Set("Content-Type", "application/x-ndjson")
		st.writeString("}\n")
	} else {
		w.Header().Set("Content-Type", "application/json")
		st.writeString(matrix)
	}
	return st
}

func (st *stream) writeString(s string) { _, _ = st.bw.WriteString(s) }
func (st *stream) writeByte(b byte)     { _ = st.bw.WriteByte(b) }

func (st *stream) writeInt(v int64) {
	st.scratch = strconv.AppendInt(st.scratch[:0], v, 10)
	_, _ = st.bw.Write(st.scratch)
}

// writeIDList writes a vertex id list with the exact bytes encoding/json
// produces for []graph.VertexID (the lists come from vertexList and are
// never nil, so the encoder would print [] for empty ones, as we do).
func (st *stream) writeIDList(ids []graph.VertexID) {
	st.writeByte('[')
	for i, v := range ids {
		if i > 0 {
			st.writeByte(',')
		}
		st.writeInt(int64(v))
	}
	st.writeByte(']')
}

// cell drains one OpenPath iterator into the stream as cell (i, j) of the
// route matrix: {"reachable":R,"distance":D,"vertices":[...]}, vertices
// omitted when unreachable — byte-identical to json.Marshal of a struct
// with those tags — as element j of its row (JSON document) or as a line
// of its own carrying "i" and "j" (NDJSON). It returns a non-nil error when
// the walk aborted or the budget ran out; an NDJSON line is then already
// closed with a "truncated":true member, a JSON document is left mid-array
// for fail to abandon.
func (st *stream) cell(i, j int, it graph.PathIterator, d int64) error {
	end := "}"
	if st.lines {
		end = "}\n"
		st.writeString(`{"i":`)
		st.writeInt(int64(i))
		st.writeString(`,"j":`)
		st.writeInt(int64(j))
		st.writeByte(',')
	} else {
		if j > 0 {
			st.writeByte(',')
		}
		st.writeByte('{')
	}
	if it == nil {
		st.writeString(`"reachable":false,"distance":0`)
		st.writeString(end)
		return nil
	}
	st.writeString(`"reachable":true,"distance":`)
	st.writeInt(d)
	st.writeString(`,"vertices":[`)
	var fail error
	for first := true; ; first = false {
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
		if !first {
			st.writeByte(',')
		}
		st.writeInt(int64(v))
	}
	if fail != nil {
		if st.lines {
			st.writeString("],\"truncated\":true}\n")
		}
		return fail
	}
	st.writeByte(']')
	st.writeString(end)
	return nil
}

// end closes a complete response.
func (st *stream) end() {
	if st.lines {
		st.writeString("{\"done\":true}\n")
	} else {
		st.writeString("]}\n")
	}
	_ = st.bw.Flush()
}

// fail ends a batch route response that err cut short after cells whole
// cells. While nothing has been sent the buffer is discarded and the error
// returned for the route adapter to answer with a real status. Otherwise
// the NDJSON stream ends with its in-band marker line, and the JSON
// document — a 200 header and a partial document on the wire — kills the
// connection, the only way left to signal failure without forging a
// well-formed-but-wrong response.
func (st *stream) fail(err error, cells int) error {
	budget := errors.Is(err, errVertexBudget)
	if budget {
		st.m.countBudgetHit()
	}
	if st.w.status == 0 {
		st.bw.Reset(st.w)
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
	line, _ := json.Marshal(struct {
		Truncated bool   `json:"truncated"`
		Error     string `json:"error"`
	}{true, err.Error()})
	_, _ = st.bw.Write(line)
	st.writeByte('\n')
	_ = st.bw.Flush()
	return nil
}
