// Package exp regenerates every table and figure of the paper's evaluation
// (§4 and Appendixes A, B and E) as Markdown tables of counts, the paper's
// machine-independent measure, so a run is the same bytes on any machine;
// running time is measured by the bench/ module. Absolute numbers differ
// from the paper (scaled synthetic datasets); the comparative shapes are
// what the experiments reproduce.
package exp

import (
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"

	"roadnet/internal/ch"
	"roadnet/internal/core"
	"roadnet/internal/gen"
	"roadnet/internal/graph"
	"roadnet/internal/silc"
	"roadnet/internal/tnr"
	"roadnet/internal/workload"
)

// Config controls dataset sizes and query counts of an experiment run. Its
// defaults are cmd/spexp's flags.
type Config struct {
	// Datasets lists the preset names to include.
	Datasets []string
	// QueriesPerSet is the number of queries per Q/R bucket (paper: 10000).
	QueriesPerSet int
	// Seed fixes workload generation.
	Seed int64
	// MaxIndexBytes mirrors the paper's 24 GB rule: indexes above the
	// ceiling are reported as "-" (0: no ceiling).
	MaxIndexBytes int64
	// TNRGridSize is the coarse grid, our analogue of the paper's 128x128.
	TNRGridSize int
}

// Experiment is one paper artifact, or several that slice one table.
type Experiment struct {
	// ID lists the artifact ids (t1, t2, f6 ... f17, b, ext, knn) the
	// experiment answers to, space-separated.
	ID string
	// Paper names the artifacts reproduced, and Title what they show.
	Paper, Title string

	run func(l *lab, w io.Writer) error
}

// Runner executes experiments against one shared lab, so datasets,
// hierarchies, indexes and workloads are built once per invocation.
type Runner struct {
	l *lab
}

// NewRunner returns a Runner for cfg.
func NewRunner(cfg Config) *Runner {
	return &Runner{l: &lab{cfg: cfg, data: map[string]*dataset{}, indexes: map[indexKey]core.Index{}}}
}

// Run executes the experiment answering to id.
func (r *Runner) Run(id string, w io.Writer) error {
	e, err := ByID(id)
	if err != nil {
		return err
	}
	return e.run(r.l, w)
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{ID: "t1", Paper: "Table 1", Title: "dataset characteristics", run: runTable1},
		{ID: "t2", Paper: "Table 2", Title: "upper bound of delta-redundancy", run: runTable2},
		{ID: "f6", Paper: "Figure 6", Title: "index space and preprocessing output vs n", run: runFigure6},
		{ID: "f7", Paper: "Figure 7", Title: "SILC vs PCPD on shortest path queries", run: runFigure7},
		{ID: "f8 f9 f10 f11 f16 f17", Paper: "Figures 8-11, 16, 17", Title: "distance and shortest path queries per query set", run: runQueries},
		{ID: "b", Paper: "Appendix B", Title: "flawed vs corrected TNR access nodes", run: runAppendixB},
		{ID: "f13 f14 f15", Paper: "Figures 13-15", Title: "TNR grid variants", run: runTNRVariants},
		{ID: "ext", Paper: "Appendix A", Title: "related-work extensions (ALT, Arc Flags) vs CH", run: runExtensions},
		{ID: "knn", Paper: "Appendix A (NN queries)", Title: "vertices settled by network k-NN and range queries", run: runSpatial},
	}
}

// ByID returns the experiment answering to id.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if slices.Contains(strings.Fields(e.ID), id) {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("exp: unknown experiment %q", id)
}

// lab generates datasets and builds indexes once per Runner.
type lab struct {
	cfg     Config
	data    map[string]*dataset
	indexes map[indexKey]core.Index
}

// dataset is one preset's network, hierarchy and query sets.
type dataset struct {
	name string
	g    *graph.Graph
	h    *ch.Hierarchy
	q, r []workload.QuerySet // Q1..Q10 and R1..R10
}

// indexKey names a method's index on a dataset, with TNR's grid options.
type indexKey struct {
	name string
	m    core.Method
	tnr  tnr.Options
}

// datasets returns the configured datasets in Table 1 (size) order with
// their networks and, if prepare is set, their hierarchies and query sets.
func (l *lab) datasets(prepare bool) ([]*dataset, error) {
	var ds []*dataset
	for _, p := range gen.Presets {
		if !slices.Contains(l.cfg.Datasets, p.Name) {
			continue
		}
		d := l.data[p.Name]
		if d == nil {
			d = &dataset{name: p.Name, g: gen.Generate(gen.Params{N: p.TargetN, Seed: p.Seed})}
			l.data[p.Name] = d
		}
		if prepare && d.h == nil {
			var err error
			wc := workload.Config{PairsPerSet: l.cfg.QueriesPerSet, Seed: l.cfg.Seed + 1}
			if d.q, err = workload.LInfSets(d.g, wc); err != nil {
				return nil, err
			}
			wc.Seed++
			if d.r, err = workload.NetworkDistanceSets(d.g, wc); err != nil {
				return nil, err
			}
			if d.h, err = ch.Build(d.g, ch.Options{}); err != nil {
				return nil, err
			}
		}
		ds = append(ds, d)
	}
	if len(ds) != len(l.cfg.Datasets) {
		return nil, fmt.Errorf("exp: unknown or repeated dataset in %v", l.cfg.Datasets)
	}
	return ds, nil
}

// applicable reports whether a method is attempted on a dataset, by the
// paper's rule for the all-pairs techniques: SILC on datasets of up to
// silc.MaxN vertices, PCPD on the four smallest.
func applicable(m core.Method, name string) bool {
	p, err := gen.PresetByName(name)
	return err == nil && (m != core.MethodSILC || p.TargetN <= silc.MaxN) &&
		(m != core.MethodPCPD || slices.Contains(gen.SmallPresetNames(), name))
}

// index returns the methods' indexes on a prepared dataset, TNR's on the
// coarse grid.
func (l *lab) index(d *dataset, ms ...core.Method) ([]core.Index, error) {
	out := make([]core.Index, len(ms))
	for i, m := range ms {
		var err error
		if out[i], err = l.build(d, indexKey{d.name, m, tnr.Options{GridSize: l.cfg.TNRGridSize}}); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// build returns the index k names, nil when the method is inapplicable or
// the index exceeds the memory ceiling: a "-", like the paper's missing
// curves.
func (l *lab) build(d *dataset, k indexKey) (core.Index, error) {
	if ix, ok := l.indexes[k]; ok || !applicable(k.m, k.name) {
		return ix, nil
	}
	ix, err := core.BuildIndex(k.m, d.g, core.Config{MaxIndexBytes: l.cfg.MaxIndexBytes, Hierarchy: d.h, TNR: k.tnr})
	if errors.Is(err, core.ErrIndexTooLarge) {
		ix, err = nil, nil
	}
	if err == nil {
		l.indexes[k] = ix
	}
	return ix, err
}

// header starts a Markdown table after a blank line.
func header(w io.Writer, cols ...string) {
	fmt.Fprintln(w)
	row(w, cols...)
	fmt.Fprintln(w, "|"+strings.Repeat("---|", len(cols)))
}

// row writes one Markdown table row. Cells are not padded, so a row's bytes
// depend on its own cells only.
func row(w io.Writer, cells ...string) {
	fmt.Fprintf(w, "|%s|\n", strings.Join(cells, "|"))
}

// verdict writes the sentence that closes a figure: whether the counts
// reproduce the paper's ordering of the techniques.
func verdict(w io.Writer, holds bool, ordering string) {
	fmt.Fprintf(w, "\n%s: %s\n", map[bool]string{true: "Reproduced", false: "Not reproduced"}[holds], ordering)
}

// num renders a count with format, or "-" for a missing one (NaN).
func num(format string, v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf(format, v)
}

var itoa = strconv.Itoa

// ratio is a/b, NaN when b is 0.
func ratio(a, b int64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return float64(a) / float64(b)
}
