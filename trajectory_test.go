package roadnet_test

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// trajectoryEntry is one performance claim in BENCH_trajectory.json: the
// workload and end-to-end metric it was judged on, the parent's and the
// change's median and quartiles, the interleaved pairs the change won, the
// verdict, and the exact counts the claim quoted as [parent, change].
// A null is a number the record does not hold.
type trajectoryEntry struct {
	PR        int                   `json:"pr"`
	Commit    *string               `json:"commit"`
	Workload  string                `json:"workload"`
	Metric    string                `json:"metric"`
	Parent    trajectorySide        `json:"parent"`
	Change    trajectorySide        `json:"change"`
	ChangePct *float64              `json:"change_pct"`
	ParentIQR *float64              `json:"parent_iqr"`
	Wins      *int                  `json:"wins"`
	Pairs     *int                  `json:"pairs"`
	Nproc     *int                  `json:"nproc"`
	Verdict   string                `json:"verdict"`
	Counts    map[string][2]float64 `json:"counts"`
}

type trajectorySide struct {
	Median *float64 `json:"median"`
	Q1     *float64 `json:"q1"`
	Q3     *float64 `json:"q3"`
}

// TestBenchTrajectory holds BENCH_trajectory.json to the written record:
// every entry has every field, names a workload and an end-to-end metric
// of BENCHMARK.json, and quotes only numbers that its PR's CHANGES.md entry
// states.
func TestBenchTrajectory(t *testing.T) {
	raw, err := os.ReadFile("BENCH_trajectory.json")
	if err != nil {
		t.Fatal(err)
	}
	var objects []map[string]json.RawMessage
	if err := json.Unmarshal(raw, &objects); err != nil {
		t.Fatal(err)
	}
	fields := []string{"change", "change_pct", "commit", "counts", "metric", "nproc", "pairs", "parent", "parent_iqr", "pr", "verdict", "wins", "workload"}
	for i, o := range objects {
		keys := slices.Sorted(maps.Keys(o))
		if !slices.Equal(keys, fields) {
			t.Fatalf("entry %d has fields %v, want %v", i, keys, fields)
		}
		for _, side := range []string{"parent", "change"} {
			var s map[string]json.RawMessage
			if err := json.Unmarshal(o[side], &s); err != nil || !slices.Equal(slices.Sorted(maps.Keys(s)), []string{"median", "q1", "q3"}) {
				t.Fatalf("entry %d: %s is %s, want median, q1 and q3", i, side, o[side])
			}
		}
	}
	var entries []trajectoryEntry
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&entries); err != nil {
		t.Fatal(err)
	}

	var bench struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
	}
	if raw, err = os.ReadFile("BENCHMARK.json"); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	changes, err := os.ReadFile("CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	hex := regexp.MustCompile(`^[0-9a-f]{7,40}$`)
	for i, e := range entries {
		if i > 0 && e.PR <= entries[i-1].PR {
			t.Errorf("PR %d follows PR %d: entries go in PR order, one each", e.PR, entries[i-1].PR)
		}
		if !slices.ContainsFunc(bench.Workloads, func(w struct{ Name string }) bool { return w.Name == e.Workload }) {
			t.Errorf("PR %d: workload %q is not in BENCHMARK.json", e.PR, e.Workload)
		}
		if !slices.ContainsFunc(bench.EndToEnd, func(m struct{ Name string }) bool { return m.Name == e.Metric }) {
			t.Errorf("PR %d: %q is not an end-to-end metric of BENCHMARK.json", e.PR, e.Metric)
		}
		switch {
		case e.Verdict != "met" && e.Verdict != "not met" && e.Verdict != "not claimed":
			t.Errorf("PR %d: verdict %q, want met, not met or not claimed", e.PR, e.Verdict)
		case e.Commit == nil && e.Verdict != "not met":
			t.Errorf("PR %d: only a claim that did not land has no commit", e.PR)
		case e.Commit != nil && !hex.MatchString(*e.Commit):
			t.Errorf("PR %d: commit %q is not a hash", e.PR, *e.Commit)
		case e.Verdict == "met" && (e.Parent.Median == nil || e.Change.Median == nil || e.Wins == nil || e.Pairs == nil):
			t.Errorf("PR %d: a met claim needs both medians and its wins out of pairs", e.PR)
		case e.Wins != nil && (e.Pairs == nil || *e.Wins > *e.Pairs):
			t.Errorf("PR %d: wins out of pairs is not a fraction", e.PR)
		}
		stated := numbersOf(changesEntry(string(changes), e.PR))
		if len(stated) == 0 {
			t.Errorf("PR %d has no entry in CHANGES.md", e.PR)
			continue
		}
		for _, x := range e.numbers() {
			if !stated[x] {
				t.Errorf("PR %d: %v is not stated in its CHANGES.md entry", e.PR, x)
			}
		}
	}
}

// numbers returns every number e quotes, unsigned.
func (e trajectoryEntry) numbers() []float64 {
	var xs []float64
	for _, p := range []*float64{e.Parent.Median, e.Parent.Q1, e.Parent.Q3, e.Change.Median, e.Change.Q1, e.Change.Q3, e.ChangePct, e.ParentIQR} {
		if p != nil {
			xs = append(xs, max(*p, -*p))
		}
	}
	for _, p := range []*int{e.Wins, e.Pairs, e.Nproc} {
		if p != nil {
			xs = append(xs, float64(*p))
		}
	}
	for _, c := range e.Counts {
		xs = append(xs, c[0], c[1])
	}
	return xs
}

var (
	changesLabel = regexp.MustCompile(`^(?:- \*\*)?PRs? (\d+(?:(?:, | and |–)\d+)*)`)
	statedNumber = regexp.MustCompile(`\d{1,3}(?: \d{3})+(?:\.\d+)?|\d+(?:\.\d+)?`)
)

// changesEntry returns the lines of CHANGES.md whose leading label ("PR 30:",
// "- **PR 46 (...", "- **PRs 43 and 44 ...") names PR n.
func changesEntry(changes string, n int) string {
	var b strings.Builder
	for _, line := range strings.Split(changes, "\n") {
		m := changesLabel.FindStringSubmatch(line)
		if m != nil && slices.Contains(strings.FieldsFunc(m[1], func(r rune) bool { return r < '0' || r > '9' }), strconv.Itoa(n)) {
			b.WriteString(line + "\n")
		}
	}
	return b.String()
}

// numbersOf returns the numbers text states. A number written in groups
// of three digits ("104 270") counts whole and by its parts.
func numbersOf(text string) map[float64]bool {
	stated := map[float64]bool{}
	for _, tok := range statedNumber.FindAllString(text, -1) {
		for _, part := range append(strings.Fields(tok), strings.ReplaceAll(tok, " ", "")) {
			if x, err := strconv.ParseFloat(part, 64); err == nil {
				stated[x] = true
			}
		}
	}
	return stated
}
