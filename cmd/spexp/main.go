// Command spexp regenerates the paper's tables and figures as text tables.
//
// Usage:
//
//	spexp -list
//	spexp -exp f8 -datasets DE,NH,ME,CO -queries 1000
//	spexp -exp all -full -queries 10000     # the paper's full workload
//
// Each experiment id maps to a paper artifact (t1, t2, f6..f17, b);
// spexp -list prints the index.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"roadnet"
	"roadnet/internal/exp"
	"roadnet/internal/gen"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list available experiments and exit")
		expIDs   = flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
		datasets = flag.String("datasets", "", "comma-separated dataset presets (default: the five smallest)")
		full     = flag.Bool("full", false, "use all ten Table 1 dataset presets")
		queries  = flag.Int("queries", 1000, "queries per Q/R set (the paper uses 10000)")
		seed     = flag.Int64("seed", 1, "workload seed")
		maxMB    = flag.Int64("maxmem", 1536, "index memory ceiling in MB (the paper's analogue is 24 GB)")
		grid     = flag.Int("grid", 32, "TNR coarse grid size (the paper's analogue of 128)")
		cacheDir = flag.String("cachedir", "", "persist built CH/TNR/SILC indexes here and reuse them across runs")
		useMmap  = flag.Bool("mmap", roadnet.MmapSupported, "mmap cached index files instead of reading them onto the heap")
	)
	flag.Parse()

	if *list {
		for _, e := range exp.All() {
			fmt.Printf("%-4s %-11s %s\n", e.ID, e.Paper, e.Title)
		}
		return
	}

	cfg := exp.Config{
		QueriesPerSet: *queries,
		Seed:          *seed,
		MaxIndexBytes: *maxMB << 20,
		TNRGridSize:   *grid,
		CacheDir:      *cacheDir,
		CacheMmap:     *useMmap,
	}
	switch {
	case *datasets != "":
		cfg.Datasets = strings.Split(*datasets, ",")
	case *full:
		for _, p := range gen.Presets {
			cfg.Datasets = append(cfg.Datasets, p.Name)
		}
	}

	var selected []exp.Experiment
	if *expIDs == "all" {
		selected = exp.All()
	} else {
		for _, id := range strings.Split(*expIDs, ",") {
			e, err := exp.ByID(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	// One Runner shares datasets, hierarchies and indexes across all
	// selected experiments; without it the all-pairs preprocessing of
	// SILC/PCPD would be repeated per experiment.
	runner := exp.NewRunner(cfg)
	for i, e := range selected {
		if i > 0 {
			fmt.Println()
			fmt.Println(strings.Repeat("=", 72))
			fmt.Println()
		}
		start := time.Now()
		if err := runner.Run(e.ID, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Printf("\n[%s completed in %.1fs]\n", e.ID, time.Since(start).Seconds())
	}
}
