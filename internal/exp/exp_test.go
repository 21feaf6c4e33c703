package exp

import (
	"bytes"
	"errors"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	"roadnet/internal/core"
)

// tinyConfig keeps a fresh lab in the sub-second range.
func tinyConfig() Config {
	return Config{Datasets: []string{"DE"}, QueriesPerSet: 20, Seed: 7, TNRGridSize: 16}
}

// committedConfig is cmd/spexp's default run, the committed EXPERIMENTS.md,
// cut to one dataset.
func committedConfig(name string) Config {
	return Config{Datasets: []string{name}, QueriesPerSet: 1000, Seed: 1, MaxIndexBytes: 1536 << 20, TNRGridSize: 32}
}

func run(t *testing.T, r *Runner, id string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := r.Run(id, &buf); err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return buf.String()
}

// runAll returns what each experiment prints on r, in paper order.
func runAll(r *Runner) ([]string, error) {
	var outs []string
	for _, e := range All() {
		var buf bytes.Buffer
		if err := r.Run(strings.Fields(e.ID)[0], &buf); err != nil {
			return nil, err
		}
		outs = append(outs, buf.String())
	}
	return outs, nil
}

// committed holds the committed run (cmd/spexp's defaults) of the two
// smallest datasets, one Runner each, generated concurrently and once.
var committed struct {
	once sync.Once
	out  map[string][]string // by dataset, what each experiment printed
	err  error
}

func generate(t *testing.T) map[string][]string {
	t.Helper()
	committed.once.Do(func() {
		names := []string{"DE", "NH"}
		outs, errs := make([][]string, len(names)), make([]error, len(names))
		var wg sync.WaitGroup
		for i, name := range names {
			wg.Add(1)
			go func() {
				defer wg.Done()
				outs[i], errs[i] = runAll(NewRunner(committedConfig(name)))
			}()
		}
		wg.Wait()
		committed.out = map[string][]string{"DE": outs[0], "NH": outs[1]}
		committed.err = errors.Join(errs...)
	})
	if committed.err != nil {
		t.Fatal(committed.err)
	}
	return committed.out
}

// tableRows returns the Markdown table rows of text, in order.
func tableRows(text string) []string {
	var rows []string
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "|") {
			rows = append(rows, line)
		}
	}
	return rows
}

// TestAllExperimentsRun checks each artifact id against what its experiment
// printed for NH in the committed run.
func TestAllExperimentsRun(t *testing.T) {
	outs := generate(t)["NH"]
	for i, e := range All() {
		for _, id := range strings.Fields(e.ID) {
			t.Run(id, func(t *testing.T) {
				if got, err := ByID(id); err != nil || got.ID != e.ID {
					t.Fatalf("%s resolves to %q (%v), want %q", id, got.ID, err, e.ID)
				}
				if len(tableRows(outs[i])) < 3 {
					t.Fatalf("%s printed no table:\n%s", id, outs[i])
				}
				if !strings.Contains(outs[i], e.Paper[:5]) && !strings.Contains(outs[i], "Appendix") {
					t.Errorf("%s output does not mention its artifact:\n%s", id, outs[i])
				}
			})
		}
	}
}

// TestCommittedExperiments regenerates the DE and NH rows of every table
// and requires each dataset's, in order, in the committed EXPERIMENTS.md,
// so a change that moves a count shows up as a diff of that file.
func TestCommittedExperiments(t *testing.T) {
	data, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	file := tableRows(string(data))
	for name, outs := range generate(t) {
		i := 0
		for _, r := range tableRows(strings.Join(outs, "")) {
			for i < len(file) && file[i] != r {
				i++
			}
			if i == len(file) {
				t.Fatalf("%s row %s is not in EXPERIMENTS.md after the rows before it; regenerate it with go run ./cmd/spexp > EXPERIMENTS.md", name, r)
			}
			i++
		}
	}
}

// TestCountsIgnoreGOMAXPROCS: SILC, PCPD and TNR preprocessing run workers,
// and what they build must not depend on how many.
func TestCountsIgnoreGOMAXPROCS(t *testing.T) {
	var outs [2]string
	for i, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		out, err := runAll(NewRunner(tinyConfig()))
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		outs[i] = strings.Join(out, "")
	}
	if outs[0] != outs[1] {
		t.Errorf("GOMAXPROCS 1 and 2 print different DE tables:\n%s\n---\n%s", outs[0], outs[1])
	}
}

func TestRunnerSharesLab(t *testing.T) {
	r := NewRunner(tinyConfig())
	first, second := run(t, r, "t1"), run(t, r, "t2")
	if !strings.Contains(first, "Table 1") || !strings.Contains(second, "Table 2") {
		t.Error("runner outputs wrong")
	}
	if err := r.Run("bogus", &bytes.Buffer{}); err == nil {
		t.Error("unknown id should error")
	}
}

func TestByID(t *testing.T) {
	f8, err := ByID("f8")
	if err != nil {
		t.Fatal(err)
	}
	if f17, err := ByID("f17"); err != nil || f17.ID != f8.ID {
		t.Errorf("f17 resolves to %q (%v), want the experiment of f8, %q", f17.ID, err, f8.ID)
	}
	if _, err := ByID("f99"); err == nil {
		t.Error("unknown id should error")
	}
	ids := map[string]bool{}
	for _, e := range All() {
		for _, id := range strings.Fields(e.ID) {
			if ids[id] {
				t.Errorf("duplicate experiment id %s", id)
			}
			ids[id] = true
		}
	}
	if len(ids) != 16 {
		t.Errorf("expected 16 artifact ids, got %d", len(ids))
	}
}

func TestTable1MentionsAllDatasets(t *testing.T) {
	cfg := tinyConfig()
	cfg.Datasets = []string{"DE", "NH"}
	out := run(t, NewRunner(cfg), "t1")
	for _, name := range []string{"DE", "NH", "Delaware", "New Hampshire"} {
		if !strings.Contains(out, name) {
			t.Errorf("Table 1 output missing %q", name)
		}
	}
}

func TestAppendixBShowsDefect(t *testing.T) {
	// Each trial row is |counterexample-i|queries|flawed wrong|corrected
	// wrong|; the corrected column must be all zeros and flawed must be
	// non-zero.
	var sawFlawedWrong bool
	for _, r := range tableRows(run(t, NewRunner(tinyConfig()), "b")) {
		cells := strings.Split(strings.Trim(r, "|"), "|")
		if !strings.HasPrefix(cells[0], "counterexample-") {
			continue
		}
		if cells[3] != "0" {
			t.Errorf("corrected TNR wrong on %s", cells[0])
		}
		if cells[2] != "0" {
			sawFlawedWrong = true
		}
	}
	if !sawFlawedWrong {
		t.Error("flawed TNR produced no wrong answers; the Appendix B defect did not manifest")
	}
}

// TestLabMemoryCeilingDropsMethods sets the ceiling to the coarse TNR
// index's bytes once it is built: it stays, and the larger fine and hybrid
// grid variants, built after, are rows of "-".
func TestLabMemoryCeilingDropsMethods(t *testing.T) {
	r := NewRunner(tinyConfig())
	ds, err := r.l.datasets(true)
	if err != nil {
		t.Fatal(err)
	}
	coarse, err := r.l.index(ds[0], core.MethodTNR)
	if err != nil {
		t.Fatal(err)
	}
	r.l.cfg.MaxIndexBytes = coarse[0].Stats().IndexBytes
	variants := map[string]bool{}
	for _, row := range tableRows(run(t, r, "f13")) {
		cells := strings.Split(strings.Trim(row, "|"), "|")
		variants[cells[0]] = strings.Trim(strings.Join(cells[1:], ""), "-") == ""
	}
	if variants["16x16"] || !variants["32x32"] || !variants["Hybrid"] {
		t.Errorf("want the 16x16 variant kept and the 32x32 and hybrid ones '-' in every column, got all-dash rows %v", variants)
	}
}

func TestLabApplicability(t *testing.T) {
	for _, c := range []struct {
		m, name string
		want    bool
	}{
		{"silc", "DE", true}, {"silc", "FL", true}, {"silc", "CA", false},
		{"pcpd", "CO", true}, {"pcpd", "FL", false}, {"pcpd", "US", false},
		{"silc", "nope", false},
	} {
		if got := applicable(core.Method(c.m), c.name); got != c.want {
			t.Errorf("applicable(%s, %s) = %v, want %v", c.m, c.name, got, c.want)
		}
	}
}
