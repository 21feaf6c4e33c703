// Command spexp regenerates the paper's tables and figures as Markdown
// tables of counts; its default run is the committed EXPERIMENTS.md:
//
//	go run ./cmd/spexp > EXPERIMENTS.md
//	spexp -list
//	spexp -full -queries 10000     # the paper's full workload
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"roadnet/internal/exp"
	"roadnet/internal/gen"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list available experiments and exit")
		expIDs   = flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
		datasets = flag.String("datasets", "DE,NH,ME,CO,FL", "comma-separated dataset presets")
		full     = flag.Bool("full", false, "use all ten Table 1 dataset presets")
		queries  = flag.Int("queries", 1000, "queries per Q/R set (the paper uses 10000)")
		seed     = flag.Int64("seed", 1, "workload seed")
		maxMB    = flag.Int64("maxmem", 1536, "index memory ceiling in MB (the paper's analogue is 24 GB)")
		grid     = flag.Int("grid", 32, "TNR coarse grid size (the paper's analogue of 128)")
	)
	flag.Parse()

	var ids []string
	for _, e := range exp.All() {
		if *list {
			fmt.Printf("%-21s %-23s %s\n", e.ID, e.Paper, e.Title)
		}
		ids = append(ids, strings.Fields(e.ID)[0])
	}
	if *list {
		return
	}
	if *expIDs != "all" {
		ids = strings.FieldsFunc(*expIDs, func(r rune) bool { return r == ',' || r == ' ' })
		for _, id := range ids {
			if _, err := exp.ByID(id); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
		}
	}

	cfg := exp.Config{Datasets: strings.Split(*datasets, ","), QueriesPerSet: *queries, Seed: *seed, MaxIndexBytes: *maxMB << 20, TNRGridSize: *grid}
	if *full {
		cfg.Datasets = nil
		for _, p := range gen.Presets {
			cfg.Datasets = append(cfg.Datasets, p.Name)
		}
	}

	fmt.Printf("# Experiments\n\nGenerated by `%s`. Every number is a count, so a run\n",
		strings.Join(append([]string{"go run ./cmd/spexp"}, os.Args[1:]...), " "))
	fmt.Println("prints the same bytes on any machine; running time is measured by bench/.")
	runner := exp.NewRunner(cfg)
	for _, id := range ids {
		fmt.Println()
		if err := runner.Run(id, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", id, err)
			os.Exit(1)
		}
	}
}
