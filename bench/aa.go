package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// benchmarkJSON is BENCHMARK.json as the driver reads it.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// exactPerLayer are the per-layer metrics that count work and therefore
// have to repeat exactly between two runs on the same seed.
func exactPerLayer(name string) bool {
	for _, suffix := range []string{".index_bytes", ".settled_per_query", ".shortcuts", ".table_share", ".vertices", ".edges", ".path_vertices_per_query"} {
		if strings.HasSuffix(name, suffix) {
			return true
		}
	}
	return false
}

// runAA runs two sets of k runs of every workload on the same build, each
// run a fresh process on a seed of its own, and prints, per workload and
// end-to-end metric, both medians, their difference, each set's spread
// (interquartile range over median) and the bound. It is the benchmark's
// statement of its own noise floor: a difference the benchmark shows
// between two commits means something only beyond what it shows here.
func runAA(k int, seconds float64, root, outDir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var bf benchmarkJSON
	if err := json.Unmarshal(data, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}

	one := func(w workload, seed int, trace int) (runOutput, error) {
		cmd := exec.Command(self, "-workload", w.Name, "-seed", strconv.Itoa(seed),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace),
			"-root", root, "-out", outDir)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return runOutput{}, fmt.Errorf("%s seed %d: %w", w.Name, seed, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var ro runOutput
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &ro); err != nil {
			return runOutput{}, fmt.Errorf("%s seed %d: last line: %w", w.Name, seed, err)
		}
		return ro, nil
	}

	// values[set][workload][metric] are the k values of one metric.
	var values [2]map[string]map[string][]float64
	var traces [2]map[string]runOutput
	failed := 0
	for set := 0; set < 2; set++ {
		values[set] = map[string]map[string][]float64{}
		traces[set] = map[string]runOutput{}
		for _, w := range workloads {
			values[set][w.Name] = map[string][]float64{}
			for i := 0; i < k; i++ {
				ro, err := one(w, 1+set*k+i, 0)
				if err != nil {
					return err
				}
				failed += ro.Failed
				for name, m := range ro.Metrics {
					values[set][w.Name][name] = append(values[set][w.Name][name], m.Value)
				}
				fmt.Fprintf(os.Stderr, "set %d %s run %d done\n", set, w.Name, i)
			}
			// The traced runs share one seed, so that counts can be compared.
			ro, err := one(w, 1, 1)
			if err != nil {
				return err
			}
			failed += ro.Failed
			traces[set][w.Name] = ro
		}
	}

	fmt.Printf("# A/A: two sets of %d runs of every workload on one build\n\n", k)
	fmt.Printf("Produced by `bash bench/run.sh --aa %d --seconds %g` on a box with %d cores (GOMAXPROCS %d, %s).\n",
		k, seconds, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Printf("Every run is a fresh process; set A uses seeds 1..%d and set B seeds %d..%d. ", k, k+1, 2*k)
	fmt.Printf("Spread is the interquartile range of a set's values over their median. ")
	fmt.Printf("A row is ok when the medians differ by less than the bound and both spreads stay within it (setup_s: medians only).\n\n")
	fmt.Printf("Failed operations over all runs: %d.\n\n", failed)
	fmt.Println("| workload | metric | unit | median A | median B | B vs A | spread A | spread B | bound | ok |")
	fmt.Println("|---|---|---|---:|---:|---:|---:|---:|---:|---|")
	allOK := failed == 0
	for _, w := range workloads {
		for i, d := range endToEnd {
			a, b := values[0][w.Name][d.Name], values[1][w.Name][d.Name]
			ma, mb := median(a), median(b)
			diff := mb/ma - 1
			spreadA, spreadB := iqrShare(a), iqrShare(b)
			bound := bf.EndToEnd[i].Bound
			if bf.EndToEnd[i].Name != d.Name {
				return fmt.Errorf("BENCHMARK.json lists %s where the program has %s", bf.EndToEnd[i].Name, d.Name)
			}
			ok := diff < bound && diff > -bound
			if d.Name != "setup_s" {
				ok = ok && spreadA <= bound && spreadB <= bound
			}
			allOK = allOK && ok
			fmt.Printf("| %s | %s | %s | %.6g | %.6g | %+.1f%% | %.1f%% | %.1f%% | %.0f%% | %v |\n",
				w.Name, d.Name, d.Unit, ma, mb, 100*diff, 100*spreadA, 100*spreadB, 100*bound, ok)
		}
	}
	fmt.Printf("\n## Counts that have to repeat exactly (traced runs, seed 1)\n\n")
	fmt.Println("| workload | metric | set A | set B | same |")
	fmt.Println("|---|---|---:|---:|---|")
	for _, w := range workloads {
		for _, d := range perLayer {
			if !exactPerLayer(d.Name) {
				continue
			}
			a, b := traces[0][w.Name].Metrics[d.Name].Value, traces[1][w.Name].Metrics[d.Name].Value
			if a == 0 && b == 0 {
				continue // a layer this workload does not use
			}
			allOK = allOK && a == b
			fmt.Printf("| %s | %s | %.10g | %.10g | %v |\n", w.Name, d.Name, a, b, a == b)
		}
	}
	fmt.Printf("\nAll rows ok: %v.\n", allOK)
	return nil
}

// iqrShare is the distance between the first and third quartile of xs as a
// share of their median, with the quartiles Python's
// statistics.quantiles(xs, n=4) gives (the exclusive method).
func iqrShare(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q := func(p float64) float64 {
		// The exclusive method places quantile p at position p*(n+1) among
		// the sorted values, counting from one, clamped to the ends.
		pos := p*float64(len(xs)+1) - 1
		if pos < 0 {
			pos = 0
		}
		if max := float64(len(xs) - 1); pos > max {
			pos = max
		}
		return quantile(xs, pos/float64(len(xs)-1))
	}
	return (q(0.75) - q(0.25)) / median(xs)
}
