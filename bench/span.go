package main

import (
	"encoding/json"
	"os"
	"sort"
)

// span is one timed interval at a layer boundary. Start and End are
// nanoseconds on the clock of the span's request: boundaries that are
// replayed one after another are aligned to their parent's start, so that
// a request's spans nest the way the calls do inside the program.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Name   string `json:"name"`
	Req    int    `json:"req"` // spans of one request share it
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how untraced runs pay nothing for tracing.
type recorder struct {
	spans []span
}

func newRecorder(capacity int) *recorder {
	return &recorder{spans: make([]span, 0, capacity)}
}

// add records one span and returns its id, for use as a child's parent.
func (r *recorder) add(name string, req, parent int, start, end int64) int {
	if r == nil {
		return -1
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: start, End: end})
	return id
}

func (r *recorder) len() int {
	if r == nil {
		return 0
	}
	return len(r.spans)
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval that its children cover. Children are clipped to the parent and
// overlapping children are counted once.
func (r *recorder) selfTimes() []int64 {
	children := make(map[int][]int, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	self := make([]int64, len(r.spans))
	for _, s := range r.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return r.spans[kids[i]].Start < r.spans[kids[j]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := r.spans[k].Start, r.spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// spanSummary is the mean duration and mean self time of the spans that
// share a name, in microseconds.
type spanSummary struct {
	Count  int
	MeanUs float64
	SelfUs float64
}

func (r *recorder) summarize() map[string]spanSummary {
	out := map[string]spanSummary{}
	if r == nil {
		return out
	}
	self := r.selfTimes()
	for _, s := range r.spans {
		a := out[s.Name]
		a.Count++
		a.MeanUs += float64(s.End-s.Start) / 1e3
		a.SelfUs += float64(self[s.ID]) / 1e3
		out[s.Name] = a
	}
	for name, a := range out {
		a.MeanUs /= float64(a.Count)
		a.SelfUs /= float64(a.Count)
		out[name] = a
	}
	return out
}

// writeFile writes the spans as one JSON document.
func (r *recorder) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(struct {
		Spans []span `json:"spans"`
	}{r.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
