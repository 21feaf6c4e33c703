package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// BENCHMARK.json and the program have to name the same workloads and
// metrics, in the same order, with the same units.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, b.Workloads[i].Name, b.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if got := b.EndToEnd[i]; got.Name != d.Name || got.Unit != d.Unit {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %s [%s], the program %s [%s]", i, got.Name, got.Unit, d.Name, d.Unit)
		}
		if got := b.EndToEnd[i]; got.Bound <= 0 || got.Bound > 0.25 || (got.Better != "lower" && got.Better != "higher") {
			t.Errorf("end-to-end metric %s: bound %v, better %q", d.Name, got.Bound, got.Better)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(b.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if got := b.PerLayer[i]; got.Name != d.Name || got.Unit != d.Unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %s [%s], the program %s [%s]", i, got.Name, got.Unit, d.Name, d.Unit)
		}
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", b.Paths)
	}
}

// Every workload runs end to end at the smallest scale, untraced and
// traced, answers every operation correctly, and prints exactly the
// metrics BENCHMARK.json lists for that kind of run.
func TestEveryWorkloadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds spserve and runs every workload")
	}
	b := readBenchmarkJSON(t)
	out := t.TempDir()
	spserve, err := buildSpserve("..", out)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.Name + "/end_to_end"
			if traced {
				name = w.Name + "/per_layer"
			}
			t.Run(name, func(t *testing.T) {
				res, err := run(w.smoke(), runOptions{Seed: 3, Seconds: 0.3, Trace: traced, OutDir: out, Spserve: spserve})
				if err != nil {
					t.Fatal(err)
				}
				if res.tally.failed != 0 || res.tally.attempted == 0 {
					t.Errorf("attempted %d, failed %d: %q", res.tally.attempted, res.tally.failed, res.tally.reasons)
				}
				line, err := resultLine(res, traced)
				if err != nil {
					t.Fatal(err)
				}
				var ro runOutput
				if err := json.Unmarshal([]byte(line), &ro); err != nil {
					t.Fatalf("result line: %v", err)
				}
				if !ro.Correct {
					t.Error("result line says correct is false")
				}
				want := map[string]string{}
				if traced {
					for _, m := range b.PerLayer {
						want[m.Name] = m.Unit
					}
					if _, err := os.Stat(out + "/trace-" + w.Name + ".json"); err != nil {
						t.Errorf("span file: %v", err)
					}
					if res.values["trace.spans"] == 0 {
						t.Error("the traced run recorded no spans")
					}
				} else {
					for _, m := range b.EndToEnd {
						want[m.Name] = m.Unit
					}
				}
				for name, m := range ro.Metrics {
					if unit, ok := want[name]; !ok {
						t.Errorf("printed %s, which BENCHMARK.json does not list", name)
					} else if unit != m.Unit {
						t.Errorf("%s printed with unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s is %v; it must never be 0", name, m.Value)
					}
					delete(want, name)
				}
				for name := range want {
					t.Errorf("BENCHMARK.json lists %s, which was not printed", name)
				}
			})
		}
	}
}
