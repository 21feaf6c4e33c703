// Package exp regenerates every table and figure of the paper's evaluation
// (§4 and Appendix E) as plain-text tables. Each experiment is a named unit
// runnable via cmd/spexp or the root benchmark suite; All maps each
// experiment id to the paper artifact it reproduces.
//
// Absolute numbers differ from the paper (scaled synthetic datasets, Go on
// different hardware); the comparative shapes are what the experiments
// reproduce.
package exp

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"

	"roadnet/internal/binio"
	"roadnet/internal/ch"
	"roadnet/internal/core"
	"roadnet/internal/gen"
	"roadnet/internal/graph"
	"roadnet/internal/tnr"
	"roadnet/internal/workload"
)

// Config controls dataset sizes and query counts of an experiment run.
type Config struct {
	// Datasets lists the preset names to include (default: the five
	// smallest, which keep a full run in the minutes range; cmd/spexp
	// -full selects all ten).
	Datasets []string
	// QueriesPerSet is the number of queries per Q/R bucket (paper: 10000;
	// default here: 1000).
	QueriesPerSet int
	// Seed fixes workload generation.
	Seed int64
	// MaxIndexBytes mirrors the paper's 24 GB rule: indexes above the
	// ceiling are reported as "-" (default 1.5 GB).
	MaxIndexBytes int64
	// TNRGridSize is the coarse grid (default 32, our 128x128 analogue).
	TNRGridSize int
	// SILCMaxVertices and PCPDMaxVertices bound the datasets on which the
	// all-pairs techniques are attempted, mirroring the paper's
	// observation that they exceed memory beyond the four smallest
	// datasets. Defaults 25000 and 10000.
	SILCMaxVertices, PCPDMaxVertices int
	// CacheDir, when set, persists built CH/TNR/SILC indexes as flat v2
	// files and reuses them across invocations, so repeated spexp runs skip
	// the all-pairs preprocessing. Files are keyed by dataset, method and
	// the config knobs that shape the index.
	CacheDir string
	// CacheMmap maps cached index files instead of reading them onto the
	// heap (effective only where the platform supports it).
	CacheMmap bool
}

func (c Config) withDefaults() Config {
	if len(c.Datasets) == 0 {
		c.Datasets = []string{"DE", "NH", "ME", "CO", "FL"}
	}
	if c.QueriesPerSet == 0 {
		c.QueriesPerSet = 1000
	}
	if c.MaxIndexBytes == 0 {
		c.MaxIndexBytes = 3 << 29 // 1.5 GB
	}
	if c.TNRGridSize == 0 {
		c.TNRGridSize = 32
	}
	if c.SILCMaxVertices == 0 {
		c.SILCMaxVertices = 25000
	}
	if c.PCPDMaxVertices == 0 {
		c.PCPDMaxVertices = 10000
	}
	return c
}

// Experiment is one reproducible paper artifact.
type Experiment struct {
	// ID is the short identifier (t1, t2, f6 ... f17, b).
	ID string
	// Paper names the artifact being reproduced.
	Paper string
	// Title describes what the experiment shows.
	Title string

	run func(l *lab, w io.Writer) error
}

// Run executes the experiment standalone with a private lab. To run several
// experiments while sharing generated datasets and built indexes, use a
// Runner.
func (e Experiment) Run(cfg Config, w io.Writer) error {
	return e.run(newLab(cfg.withDefaults()), w)
}

// Runner executes experiments against one shared lab, so datasets,
// hierarchies, indexes and workloads are built once per invocation (index
// preprocessing — PCPD in particular — dominates a full run otherwise).
type Runner struct {
	l *lab
}

// NewRunner returns a Runner for cfg.
func NewRunner(cfg Config) *Runner { return &Runner{l: newLab(cfg.withDefaults())} }

// Run executes the experiment with the given id.
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
		{ID: "f6", Paper: "Figure 6", Title: "space overhead and preprocessing time vs n", run: runFigure6},
		{ID: "f7", Paper: "Figure 7", Title: "SILC vs PCPD on shortest path queries", run: runFigure7},
		{ID: "f8", Paper: "Figure 8", Title: "distance queries vs n (Q1, Q4, Q7, Q10)", run: runFigure8},
		{ID: "f9", Paper: "Figure 9", Title: "distance queries vs query set", run: runFigure9},
		{ID: "f10", Paper: "Figure 10", Title: "shortest path queries vs n (Q1, Q4, Q7, Q10)", run: runFigure10},
		{ID: "f11", Paper: "Figure 11", Title: "shortest path queries vs query set", run: runFigure11},
		{ID: "b", Paper: "Appendix B", Title: "flawed vs corrected TNR access nodes", run: runAppendixB},
		{ID: "f13", Paper: "Figure 13", Title: "TNR grid variants: space and preprocessing", run: runFigure13},
		{ID: "f14", Paper: "Figure 14", Title: "TNR variants on distance queries", run: runFigure14},
		{ID: "f15", Paper: "Figure 15", Title: "TNR variants on shortest path queries", run: runFigure15},
		{ID: "f16", Paper: "Figure 16", Title: "distance queries vs n (R sets)", run: runFigure16},
		{ID: "f17", Paper: "Figure 17", Title: "shortest path queries vs n (R sets)", run: runFigure17},
		{ID: "ext", Paper: "Appendix A", Title: "related-work extensions (ALT, Arc Flags) vs CH", run: runExtensions},
		{ID: "knn", Paper: "Appendix A (NN queries)", Title: "vertices settled by network k-NN and range queries", run: runSpatial},
	}
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("exp: unknown experiment %q", id)
}

// lab lazily generates datasets, workloads and indexes, caching them for
// the duration of one experiment run.
type lab struct {
	cfg Config

	graphs      map[string]*graph.Graph
	hierarchies map[string]*ch.Hierarchy
	indexes     map[string]map[core.Method]core.Index
	qsets       map[string][]workload.QuerySet
	rsets       map[string][]workload.QuerySet
}

func newLab(cfg Config) *lab {
	return &lab{
		cfg:         cfg,
		graphs:      map[string]*graph.Graph{},
		hierarchies: map[string]*ch.Hierarchy{},
		indexes:     map[string]map[core.Method]core.Index{},
		qsets:       map[string][]workload.QuerySet{},
		rsets:       map[string][]workload.QuerySet{},
	}
}

func (l *lab) graph(name string) (*graph.Graph, error) {
	if g, ok := l.graphs[name]; ok {
		return g, nil
	}
	g, err := gen.GeneratePreset(name)
	if err != nil {
		return nil, err
	}
	l.graphs[name] = g
	return g, nil
}

func (l *lab) hierarchy(name string) (*ch.Hierarchy, error) {
	if h, ok := l.hierarchies[name]; ok {
		return h, nil
	}
	g, err := l.graph(name)
	if err != nil {
		return nil, err
	}
	h, err := ch.Build(g, ch.Options{})
	if err != nil {
		return nil, err
	}
	l.hierarchies[name] = h
	return h, nil
}

// applicable reports whether a method is attempted on a dataset, mirroring
// the paper's feasibility limits for the all-pairs techniques.
func (l *lab) applicable(m core.Method, name string) bool {
	p, err := gen.PresetByName(name)
	if err != nil {
		return false
	}
	switch m {
	case core.MethodSILC:
		return p.TargetN <= l.cfg.SILCMaxVertices
	case core.MethodPCPD:
		return p.TargetN <= l.cfg.PCPDMaxVertices
	default:
		return true
	}
}

// index builds (or fetches) a method's index on a dataset. It returns
// (nil, nil) when the method is inapplicable or exceeds the memory ceiling,
// which callers render as "-" exactly like the paper's missing curves.
func (l *lab) index(m core.Method, name string) (core.Index, error) {
	if byM, ok := l.indexes[name]; ok {
		if ix, ok := byM[m]; ok {
			return ix, nil
		}
	}
	if !l.applicable(m, name) {
		return nil, nil
	}
	g, err := l.graph(name)
	if err != nil {
		return nil, err
	}
	cachePath := l.cachePath(m, name)
	if cachePath != "" {
		if _, serr := os.Stat(cachePath); serr == nil {
			if ix, _, lerr := core.LoadIndexFile(m, cachePath, g, l.cfg.CacheMmap); lerr == nil {
				if l.indexes[name] == nil {
					l.indexes[name] = map[core.Method]core.Index{}
				}
				l.indexes[name][m] = ix
				return ix, nil
			}
			// An unreadable cache entry (stale format, truncation) is
			// rebuilt and overwritten below.
		}
	}
	h, err := l.hierarchy(name)
	if err != nil {
		return nil, err
	}
	cfg := core.Config{
		MaxIndexBytes: l.cfg.MaxIndexBytes,
		Hierarchy:     h,
		TNR:           tnr.Options{GridSize: l.cfg.TNRGridSize},
	}
	ix, err := core.BuildIndex(m, g, cfg)
	if errors.Is(err, core.ErrIndexTooLarge) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	if cachePath != "" {
		if err := saveIndexFile(ix, cachePath); err != nil {
			return nil, fmt.Errorf("exp: caching %s: %w", cachePath, err)
		}
	}
	if l.indexes[name] == nil {
		l.indexes[name] = map[core.Method]core.Index{}
	}
	l.indexes[name][m] = ix
	return ix, nil
}

// cachePath names the on-disk cache entry for a method's index on a
// dataset, or "" when caching does not apply. The name embeds every config
// knob that shapes the index, so changed configs rebuild rather than load
// a mismatched file.
func (l *lab) cachePath(m core.Method, name string) string {
	if l.cfg.CacheDir == "" {
		return ""
	}
	switch m {
	case core.MethodCH, core.MethodSILC:
		return filepath.Join(l.cfg.CacheDir, fmt.Sprintf("%s-%s.idx", name, m))
	case core.MethodTNR:
		return filepath.Join(l.cfg.CacheDir, fmt.Sprintf("%s-%s-g%d.idx", name, m, l.cfg.TNRGridSize))
	default:
		return ""
	}
}

func saveIndexFile(ix core.Index, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return binio.WriteFile(path, func(w io.Writer) error { return core.SaveIndex(ix, w) })
}

func (l *lab) linfSets(name string) ([]workload.QuerySet, error) {
	if qs, ok := l.qsets[name]; ok {
		return qs, nil
	}
	g, err := l.graph(name)
	if err != nil {
		return nil, err
	}
	qs, err := workload.LInfSets(g, workload.Config{PairsPerSet: l.cfg.QueriesPerSet, Seed: l.cfg.Seed + 1})
	if err != nil {
		return nil, err
	}
	l.qsets[name] = qs
	return qs, nil
}

func (l *lab) rSets(name string) ([]workload.QuerySet, error) {
	if rs, ok := l.rsets[name]; ok {
		return rs, nil
	}
	g, err := l.graph(name)
	if err != nil {
		return nil, err
	}
	rs, err := workload.NetworkDistanceSets(g, workload.Config{PairsPerSet: l.cfg.QueriesPerSet, Seed: l.cfg.Seed + 2})
	if err != nil {
		return nil, err
	}
	l.rsets[name] = rs
	return rs, nil
}

// datasets returns the configured datasets ordered by size.
func (l *lab) datasets() []string {
	names := append([]string(nil), l.cfg.Datasets...)
	sizeOf := func(n string) int {
		p, err := gen.PresetByName(n)
		if err != nil {
			return 1 << 30
		}
		return p.TargetN
	}
	sort.Slice(names, func(i, j int) bool { return sizeOf(names[i]) < sizeOf(names[j]) })
	return names
}

// smallDatasets returns the configured datasets on which PCPD is feasible
// (Figure 7 uses the four smallest).
func (l *lab) smallDatasets() []string {
	var out []string
	for _, name := range l.datasets() {
		if l.applicable(core.MethodPCPD, name) {
			out = append(out, name)
		}
	}
	return out
}

// newTable returns a tabwriter for aligned text tables.
func newTable(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
}

// fmtMicros renders a mean query time, or "-" for missing measurements.
func fmtMicros(v float64, ok bool) string {
	if !ok {
		return "-"
	}
	switch {
	case v >= 100:
		return fmt.Sprintf("%.0f", v)
	case v >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// fmtMB renders a byte count in MB.
func fmtMB(b int64) string {
	mb := float64(b) / (1 << 20)
	switch {
	case mb >= 100:
		return fmt.Sprintf("%.0f", mb)
	case mb >= 1:
		return fmt.Sprintf("%.1f", mb)
	default:
		return fmt.Sprintf("%.3f", mb)
	}
}
