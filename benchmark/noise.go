package main

// -repeat N -check: do N sets of runs of the same code agree within the
// benchmark's own bounds? The answer for the commit that defined the
// benchmark is committed as NOISE.md.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
)

// benchmarkSpec is BENCHMARK.json.
type benchmarkSpec struct {
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

func loadBenchmarkSpec(path string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// noiseCheck runs the whole set n times, each workload in a fresh
// process, and prints as a markdown table every end-to-end metric's spread
// between the sets — (max − min) ÷ median — beside its bound. It fails
// when a spread exceeds half the bound, or when a simulated metric, which
// is a pure function of the seed, differs at all.
func noiseCheck(n int, opt options) error {
	spec, err := loadBenchmarkSpec("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("-check reads the bounds from BENCHMARK.json in the working directory: %w", err)
	}
	sets := make([]map[string]resultObject, n)
	for i := range sets {
		fmt.Fprintf(os.Stderr, "benchmark: set %d of %d\n", i+1, n)
		if sets[i], err = runSet(opt, 0, nil); err != nil {
			return err
		}
	}
	fmt.Printf("## seed %d, %d sets, %.0f s of timed passes per run\n\n", opt.seed, n, opt.seconds)
	fmt.Println("| workload | metric | median | spread between sets | bound | verdict |")
	fmt.Println("|---|---|---:|---:|---:|---|")
	var failures []string
	for _, w := range workloads {
		for _, m := range spec.EndToEnd {
			vals := make([]float64, n)
			for i, set := range sets {
				v, ok := set[w.name].Metrics[m.Name]
				if !ok {
					return fmt.Errorf("%s: run did not report %s", w.name, m.Name)
				}
				vals[i] = v.Value
			}
			lo, hi := vals[0], vals[0]
			for _, v := range vals {
				lo, hi = math.Min(lo, v), math.Max(hi, v)
			}
			med := median(vals)
			spread := 0.0
			if med != 0 {
				spread = (hi - lo) / math.Abs(med)
			}
			verdict := "ok"
			switch {
			case strings.HasPrefix(m.Name, "sim_") && hi != lo:
				verdict = "FAIL: simulated metric differs between sets"
			case spread > m.Bound/2:
				verdict = "FAIL: above half the bound"
			}
			if verdict != "ok" {
				failures = append(failures, w.name+"/"+m.Name)
			}
			fmt.Printf("| %s | %s | %.6g | %.3f%% | %.1f%% | %s |\n", w.name, m.Name, med, 100*spread, 100*m.Bound, verdict)
		}
	}
	fmt.Println()
	if len(failures) > 0 {
		return fmt.Errorf("sets disagree on %s", strings.Join(failures, ", "))
	}
	return nil
}
