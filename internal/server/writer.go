// The one JSON writer: every answer, error bodies and the batch streams of
// stream.go included, is appended into a pooled buffer here (numbers by
// strconv, the few strings escaped once) and sent in one Write per answer
// or spilled chunk. The bytes are json.Encoder's for the response structs
// kept in writer_test.go as the reference of FuzzResponseBytes.
package server

import (
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"roadnet/internal/core"
	"roadnet/internal/geom"
	"roadnet/internal/graph"
)

// reply is one answer under construction, taken from a pool.
type reply struct{ b []byte }

var replies = sync.Pool{New: func() any { return &reply{b: make([]byte, 0, 4<<10)} }}

func newReply() *reply {
	rp := replies.Get().(*reply)
	rp.b = rp.b[:0]
	return rp
}

// free returns rp to the pool, unless its buffer outgrew a batch stream's
// (streamBufSize and one element); rp must not be used after.
func (rp *reply) free() {
	if cap(rp.b) <= 2*streamBufSize {
		replies.Put(rp)
	}
}

// jsonContentType is assigned by every JSON answer: net/http only reads
// header values, and Header.Set would allocate a slice per response.
var jsonContentType = []string{"application/json"}

// send answers with status and doc — rp's buffer, the document appended —
// plus a newline, in one Write, and frees rp.
func (rp *reply) send(w http.ResponseWriter, status int, doc []byte) {
	rp.b = append(doc, '\n')
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	_, _ = w.Write(rp.b)
	rp.free()
}

// sendError answers status with the body {"error":msg}.
func sendError(w http.ResponseWriter, status int, msg string) {
	rp := newReply()
	rp.send(w, status, append(appendString(rp.b, `{"error":`, msg), '}'))
}

// The appenders append a prefix — an object member's key and punctuation,
// or the separator before an array element — and then one value.

func appendInt(b []byte, prefix string, v int64) []byte {
	return strconv.AppendInt(append(b, prefix...), v, 10)
}

func appendBool(b []byte, prefix string, v bool) []byte {
	return strconv.AppendBool(append(b, prefix...), v)
}

// sep is the separator before element i of an array.
func sep(i int) string {
	if i == 0 {
		return ""
	}
	return ","
}

// appendIDs appends a vertex id list, [] when empty.
func appendIDs(b []byte, prefix string, ids []graph.VertexID) []byte {
	b = append(append(b, prefix...), '[')
	for i, v := range ids {
		b = appendInt(b, sep(i), int64(v))
	}
	return append(b, ']')
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string escaped as encoding/json escapes
// by default: `"` and `\` behind a backslash, \b \t \n \f \r by name, and
// every other control byte, <, >, &, U+2028, U+2029 and each byte of
// invalid UTF-8 (as U+FFFD) in the six-byte hex form.
func appendString(b []byte, prefix, s string) []byte {
	b = append(append(b, prefix...), '"')
	start := 0
	for i := 0; i < len(s); {
		c, size := rune(s[i]), 1
		if c >= utf8.RuneSelf {
			c, size = utf8.DecodeRuneInString(s[i:])
		}
		if c < 0x20 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' ||
			c == utf8.RuneError && size == 1 || c == 0x2028 || c == 0x2029 {
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', byte(c))
			case '\b', '\t', '\n', '\f', '\r':
				b = append(b, '\\', "btnvfr"[c-'\b'])
			default:
				b = append(b, '\\', 'u', hexDigits[c>>12], hexDigits[c>>8&0xf], hexDigits[c>>4&0xf], hexDigits[c&0xf])
			}
			start = i + size
		}
		i += size
	}
	return append(append(b, s[start:]...), '"')
}

// appendPair opens a point-to-point answer, {"from":F,"to":T,"reachable":R,
// "distance":D. The distance is always present, 0 when unreachable: a
// from == to query answers a legitimate 0, and without the member clients
// reading the raw JSON could not tell "zero" from "absent".
func appendPair(b []byte, q pairQuery, reachable bool, d int64) []byte {
	if !reachable {
		d = 0
	}
	b = appendInt(b, `{"from":`, int64(q.from))
	b = appendInt(b, `,"to":`, int64(q.to))
	b = appendBool(b, `,"reachable":`, reachable)
	return appendInt(b, `,"distance":`, d)
}

// appendRoute appends the /v1/route answer for q, draining it (nil when
// unreachable) in one pass: the ids into b, the coordinates of g into a
// second pooled buffer joined behind them. A path of no vertices carries
// neither list. An aborted walk returns its error.
func appendRoute(b []byte, g *graph.Graph, q pairQuery, it graph.PathIterator, d int64) ([]byte, error) {
	b = appendPair(b, q, it != nil, d)
	if it == nil {
		return append(b, '}'), nil
	}
	coords := newReply()
	defer coords.free()
	mark := len(b)
	b = append(b, `,"vertices":[`...)
	for i := 0; ; i++ {
		v, ok := it.Next()
		if !ok {
			break
		}
		p := g.Coord(v)
		b = appendInt(b, sep(i), int64(v))
		coords.b = appendInt(append(coords.b, sep(i)...), "[", int64(p.X))
		coords.b = append(appendInt(coords.b, ",", int64(p.Y)), ']')
	}
	if err := it.Err(); err != nil {
		return b, err
	}
	if len(coords.b) == 0 {
		b = b[:mark]
	} else {
		b = append(append(append(b, `],"coords":[`...), coords.b...), ']')
	}
	return append(b, '}'), nil
}

func appendNearest(b []byte, v graph.VertexID, p geom.Point) []byte {
	b = appendInt(b, `{"vertex":`, int64(v))
	b = appendInt(b, `,"x":`, int64(p.X))
	return append(appendInt(b, `,"y":`, int64(p.Y)), '}')
}

func appendStats(b []byte, method string, vertices, edges int, indexBytes, buildMillis int64) []byte {
	b = appendString(b, `{"method":`, method)
	b = appendInt(b, `,"vertices":`, int64(vertices))
	b = appendInt(b, `,"edges":`, int64(edges))
	b = appendInt(b, `,"index_bytes":`, indexBytes)
	return append(appendInt(b, `,"build_millis":`, buildMillis), '}')
}

// appendNeighbors appends a spatial answer's neighbor list, [] when empty.
func appendNeighbors(b []byte, prefix string, nbs []core.Neighbor) []byte {
	b = append(append(b, prefix...), '[')
	for i, nb := range nbs {
		b = appendInt(append(b, sep(i)...), `{"vertex":`, int64(nb.V))
		b = append(appendInt(b, `,"distance":`, nb.Dist), '}')
	}
	return append(b, ']')
}

func appendKNN(b []byte, src graph.VertexID, k int, nbs []core.Neighbor) []byte {
	b = appendInt(b, `{"source":`, int64(src))
	b = appendInt(b, `,"k":`, int64(k))
	return append(appendNeighbors(b, `,"neighbors":`, nbs), '}')
}

func appendWithin(b []byte, src graph.VertexID, radius int64, truncated bool, nbs []core.Neighbor) []byte {
	b = appendInt(b, `{"source":`, int64(src))
	b = appendInt(b, `,"radius":`, radius)
	b = appendInt(b, `,"count":`, int64(len(nbs)))
	b = appendBool(b, `,"truncated":`, truncated)
	return append(appendNeighbors(b, `,"neighbors":`, nbs), '}')
}

// appendReadyz appends the /readyz answer, ready unless draining. Every
// other member is left out while false or empty, so the steady-state
// healthy answer stays minimal: {"ready":true,"verified":true}.
func appendReadyz(b []byte, draining, degraded, verified bool, reason string) []byte {
	b = appendBool(b, `{"ready":`, !draining)
	if draining {
		b = append(b, `,"draining":true`...)
	}
	if degraded {
		b = append(b, `,"degraded":true`...)
	}
	if verified {
		b = append(b, `,"verified":true`...)
	}
	if reason != "" {
		b = appendString(b, `,"reason":`, reason)
	}
	return append(b, '}')
}
