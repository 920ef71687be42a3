// Package bench regenerates every figure of the paper's evaluation
// (§6, Figs 1, 3–6, 10–18) from the simulated serving stack. Each figure
// is a Figure value whose Run method produces a Report: a TSV table of
// the same series the paper plots, plus notes comparing the measured
// shape to the paper's. The cmd/fastttsbench binary and the repository's
// bench_test.go both drive this package.
package bench

import (
	"encoding/json"
	"fmt"
	"strings"

	"fasttts/internal/core"
	"fasttts/internal/hw"
	"fasttts/internal/metrics"
	"fasttts/internal/search"
	"fasttts/internal/workload"
)

// RunOpts scales an experiment.
type RunOpts struct {
	// Problems per dataset (default 6; the paper uses full test sets —
	// raise via cmd flag for tighter confidence).
	Problems int
	// Seed drives all randomness.
	Seed uint64
	// MaxN caps the beam sweep (default 512).
	MaxN int
}

func (o RunOpts) withDefaults() RunOpts {
	if o.Problems <= 0 {
		o.Problems = 6
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.MaxN <= 0 {
		o.MaxN = 512
	}
	return o
}

// Report is one regenerated figure.
type Report struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// TSV renders the report as tab-separated values.
func (r *Report) TSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Figure %s: %s\n", r.ID, r.Title)
	b.WriteString(strings.Join(r.Header, "\t"))
	b.WriteByte('\n')
	for _, row := range r.Rows {
		b.WriteString(strings.Join(row, "\t"))
		b.WriteByte('\n')
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	return b.String()
}

// JSONL renders the report as JSON Lines (one object per row, keyed by
// the header), mirroring the paper artifact's JSONL logs (Appendix B).
func (r *Report) JSONL() string {
	var b strings.Builder
	meta, _ := json.Marshal(map[string]string{"figure": r.ID, "title": r.Title})
	b.Write(meta)
	b.WriteByte('\n')
	for _, row := range r.Rows {
		obj := make(map[string]string, len(r.Header))
		for i, h := range r.Header {
			if i < len(row) {
				obj[h] = row[i]
			}
		}
		line, err := json.Marshal(obj)
		if err != nil {
			continue
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	return b.String()
}

// Figure is one regenerable experiment.
type Figure struct {
	ID    string
	Title string
	Run   func(RunOpts) (*Report, error)
}

// All returns every figure in paper order.
func All() []Figure {
	return []Figure{
		{ID: "1a", Title: "Memory cost across models", Run: Fig1aMemory},
		{ID: "1b", Title: "Latency: edge baseline vs FastTTS vs cloud", Run: Fig1bLatencyFrontier},
		{ID: "3l", Title: "Accuracy vs latency across TTS methods (MATH500)", Run: Fig3LeftAccuracyLatency},
		{ID: "3r", Title: "Tokens per generation step (AIME)", Run: Fig3RightStepTokens},
		{ID: "4", Title: "GPU utilization: generate vs verify phase", Run: Fig4UtilPhases},
		{ID: "5l", Title: "Beams in memory with/without prefix cache", Run: Fig5LeftPrefixMemory},
		{ID: "5r", Title: "Prefix-sharing heatmap under naive scheduling", Run: Fig5RightHeatmap},
		{ID: "6", Title: "Normalized throughput vs KV cache size", Run: Fig6ThroughputVsKV},
		{ID: "10", Title: "Roofline-guided KV allocation", Run: Fig10RooflineAlloc},
		{ID: "11", Title: "Goodput across search-algorithm variants (AIME)", Run: Fig11SearchVariants},
		{ID: "12", Title: "Goodput: 3 configs x AIME/AMC", Run: Fig12Goodput},
		{ID: "13", Title: "Completion latency with gen/verify breakdown", Run: Fig13Latency},
		{ID: "14a", Title: "Top-1 accuracy (n=512)", Run: Fig14aTop1},
		{ID: "14b", Title: "Pass@N accuracy", Run: Fig14bPassN},
		{ID: "15", Title: "Constrained hardware + HumanEval", Run: Fig15ConstrainedHW},
		{ID: "16", Title: "Ablation: cumulative P/M/S goodput gains", Run: Fig16Ablation},
		{ID: "17l", Title: "Compute utilization within one iteration", Run: Fig17LeftUtil},
		{ID: "17r", Title: "Truncation ratio R vs goodput", Run: Fig17RightTruncation},
		{ID: "18l", Title: "KV growth by scheduling order", Run: Fig18LeftSchedulers},
		{ID: "18r", Title: "Goodput gain vs available KV memory", Run: Fig18RightMemoryGain},
	}
}

// ByID returns the figure (or extension ablation) with the given ID.
func ByID(id string) (Figure, error) {
	for _, f := range append(All(), Extensions()...) {
		if f.ID == id {
			return f, nil
		}
	}
	return Figure{}, fmt.Errorf("bench: unknown figure %q", id)
}

// --- shared deployment plumbing ---

// deployment builds a core.Config for one experiment cell: the pair on
// g under the paper's memory rule (core.ModelPair.Deploy).
func deployment(g hw.GPU, pc core.ModelPair, pol search.Policy, opts core.Options, seed uint64) core.Config {
	cfg := pc.Deploy(g)
	cfg.Policy, cfg.Opts, cfg.Seed = pol, opts, seed
	return cfg
}

// versus solves one cell of a baseline-vs-FastTTS figure: the deployment
// cfg under the vLLM baseline's options, then under FastTTS's. Of cfg's
// own options only AllowOffload carries into both runs.
func versus(cfg core.Config, spec workload.DatasetSpec, o RunOpts) (base, fast []*core.Result, err error) {
	offload := cfg.Opts.AllowOffload
	cfg.Opts = core.BaselineOptions()
	cfg.Opts.AllowOffload = offload
	if base, err = solveSet(cfg, spec, o); err != nil {
		return nil, nil, err
	}
	cfg.Opts = core.FastTTSOptions()
	cfg.Opts.AllowOffload = offload
	if fast, err = solveSet(cfg, spec, o); err != nil {
		return nil, nil, err
	}
	return base, fast, nil
}

// solveSet solves the first opts.Problems problems of a dataset under the
// given configuration and returns all results.
func solveSet(cfg core.Config, spec workload.DatasetSpec, o RunOpts) ([]*core.Result, error) {
	runner, err := core.NewRunner(cfg)
	if err != nil {
		return nil, err
	}
	ds := workload.NewDataset(spec, rngFor(o.Seed))
	var out []*core.Result
	for _, p := range ds.Subset(o.Problems) {
		res, err := runner.Solve(p)
		if err != nil {
			return nil, fmt.Errorf("bench: %s/%d: %w", spec.Name, p.Index, err)
		}
		out = append(out, res)
	}
	return out, nil
}

func meanGoodput(rs []*core.Result) float64 {
	if len(rs) == 0 {
		return 0
	}
	total := 0.0
	for _, r := range rs {
		total += r.Goodput
	}
	return total / float64(len(rs))
}

func meanLatency(rs []*core.Result) (total, gen, ver float64) {
	if len(rs) == 0 {
		return 0, 0, 0
	}
	for _, r := range rs {
		total += r.Latency
		gen += r.GenTime
		ver += r.VerTime
	}
	n := float64(len(rs))
	return total / n, gen / n, ver / n
}

// topCorrect applies majority voting to one result.
func topCorrect(res *core.Result) bool {
	return metrics.Top1Correct(res.PathResults())
}

// accuracy folds per-problem outcomes into a percentage.
func accuracy(oks []bool) float64 { return metrics.Accuracy(oks) }

// nSweep returns the paper's beam-count grid capped at max.
func nSweep(max int, values ...int) []int {
	var out []int
	for _, v := range values {
		if v <= max {
			out = append(out, v)
		}
	}
	return out
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func itoa(v int) string   { return fmt.Sprintf("%d", v) }
func i64(v int64) string  { return fmt.Sprintf("%d", v) }
