// Command bench is this repository's benchmark: the paper's query sweeps
// in process and a live spserve over loopback TCP, end to end and layer by
// layer. BENCHMARK.json at the repository root names the workloads and
// metrics; README.md in this directory defines them.
//
//	bash bench/run.sh --workload paper_dist_small --seed 1 --seconds 8 --trace 0
//	bash bench/run.sh --aa 3
//
// The last line of standard output is the run's result as one JSON object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (see -list)")
		seed    = flag.Int64("seed", 1, "seed of the query and traffic generators; the program under test never sees it")
		seconds = flag.Float64("seconds", 8, "length of the measured phase")
		trace   = flag.Int("trace", 0, "1: the traced run, which prints the per-layer metrics and writes the span file; 0: the end-to-end metrics")
		root    = flag.String("root", ".", "root of the repository under test")
		outDir  = flag.String("out", ".bench_build", "directory for everything a run leaves behind")
		aa      = flag.Int("aa", 0, "run two sets of this many runs of every workload on the same build and compare their medians")
		list    = flag.Bool("list", false, "list the workloads and exit")
	)
	flag.Parse()

	if *list {
		for _, w := range workloads {
			fmt.Printf("%-18s %s\n", w.Name, w.Why)
		}
		return
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	out, err := filepath.Abs(*outDir)
	if err != nil {
		fatal(err)
	}
	if *aa > 0 {
		if err := runAA(*aa, *seconds, *root, out); err != nil {
			fatal(err)
		}
		return
	}

	w, err := workloadByName(*name)
	if err != nil {
		fatal(err)
	}
	opt := runOptions{Seed: *seed, Seconds: *seconds, Trace: *trace != 0, OutDir: out}
	if w.Serve {
		if opt.Spserve, err = buildSpserve(*root, out); err != nil {
			fatal(err)
		}
	}
	cpu0 := readCPUTimes()
	res, err := run(w, opt)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("env: nproc %d, GOMAXPROCS %d, %s, steal %.2f%% of the box's cpu time during this run\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), 100*stealShareSince(cpu0))
	for _, n := range res.notes {
		fmt.Println(n)
	}
	printReport(res, opt.Trace)
	line, err := resultLine(res, opt.Trace)
	if err != nil {
		fatal(err)
	}
	fmt.Println(line)
}

func run(w workload, opt runOptions) (*result, error) {
	if w.Serve {
		return runServe(w, opt)
	}
	return runPaper(w, opt)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOutput is the last line a run prints.
type runOutput struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// metricsOf picks the metrics a run has to report: the end-to-end ones of
// an untraced run, the per-layer ones of a traced one.
func metricsOf(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// printReport prints what a person wants from a run: why operations
// failed, how many did, and every reported metric by name with its unit.
func printReport(res *result, traced bool) {
	for _, r := range res.tally.reasons {
		fmt.Println("failed:", r)
	}
	fmt.Printf("operations: attempted %d, failed %d, fail_share %g\n",
		res.tally.attempted, res.tally.failed, res.tally.failShare())
	for _, d := range metricsOf(traced) {
		fmt.Printf("%-32s %16.6g %s\n", d.Name, res.values[d.Name], d.Unit)
	}
}

// resultLine renders the run's last line of output. A per-layer metric the
// workload's layers did not touch is 0; an end-to-end metric has to exist.
func resultLine(res *result, traced bool) (string, error) {
	out := runOutput{
		Correct:   res.tally.failed == 0 && res.tally.attempted > 0,
		Attempted: res.tally.attempted,
		Failed:    res.tally.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range metricsOf(traced) {
		v, ok := res.values[d.Name]
		if !ok && !traced {
			return "", fmt.Errorf("end-to-end metric %s was not measured", d.Name)
		}
		out.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}
