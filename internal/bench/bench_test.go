package bench

import (
	"strconv"
	"strings"
	"testing"
)

// quick returns fast RunOpts for shape tests.
func quick() RunOpts { return RunOpts{Problems: 3, Seed: 42, MaxN: 128} }

func cell(t *testing.T, r *Report, row int, col string) string {
	t.Helper()
	for i, h := range r.Header {
		if h == col {
			return r.Rows[row][i]
		}
	}
	t.Fatalf("column %q not in %v", col, r.Header)
	return ""
}

func cellF(t *testing.T, r *Report, row int, col string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell(t, r, row, col), 64)
	if err != nil {
		t.Fatalf("cell %d/%s = %q not a number", row, col, cell(t, r, row, col))
	}
	return v
}

func TestAllFiguresRegistered(t *testing.T) {
	ids := map[string]bool{}
	for _, f := range All() {
		if f.ID == "" || f.Title == "" || f.Run == nil {
			t.Errorf("malformed figure %+v", f)
		}
		if ids[f.ID] {
			t.Errorf("duplicate figure ID %s", f.ID)
		}
		ids[f.ID] = true
	}
	// Every evaluation figure of the paper must be present.
	for _, want := range []string{"1a", "1b", "3l", "3r", "4", "5l", "5r", "6",
		"10", "11", "12", "13", "14a", "14b", "15", "16", "17l", "17r", "18l", "18r"} {
		if !ids[want] {
			t.Errorf("figure %s missing", want)
		}
	}
	if _, err := ByID("12"); err != nil {
		t.Error(err)
	}
	if _, err := ByID("99"); err == nil {
		t.Error("unknown figure ID accepted")
	}
}

func TestReportTSV(t *testing.T) {
	r := &Report{ID: "x", Title: "T", Header: []string{"a", "b"},
		Rows: [][]string{{"1", "2"}}, Notes: []string{"n"}}
	tsv := r.TSV()
	for _, want := range []string{"# Figure x: T", "a\tb", "1\t2", "# n"} {
		if !strings.Contains(tsv, want) {
			t.Errorf("TSV missing %q:\n%s", want, tsv)
		}
	}
}

func TestFig1aShape(t *testing.T) {
	r, err := Fig1aMemory(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// The edge pair fits; every cloud model does not.
	if cell(t, r, 1, "fits_24gb") != "yes" {
		t.Error("edge TTS pair should fit a 4090")
	}
	for i := 2; i < 5; i++ {
		if cell(t, r, i, "fits_24gb") != "no" {
			t.Errorf("cloud model row %d should not fit", i)
		}
	}
}

func TestFig1bShape(t *testing.T) {
	r, err := Fig1bLatencyFrontier(quick())
	if err != nil {
		t.Fatal(err)
	}
	base := cellF(t, r, 0, "latency_s")
	fast := cellF(t, r, 1, "latency_s")
	cloud := cellF(t, r, 2, "latency_s")
	if !(fast < base) {
		t.Errorf("FastTTS %v not faster than baseline %v", fast, base)
	}
	if !(fast < cloud) {
		t.Errorf("FastTTS %v should beat the cloud reference %v (paper Fig 1b)", fast, cloud)
	}
}

func TestFig3RightHeavyTail(t *testing.T) {
	r, err := Fig3RightStepTokens(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 10 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for i := range r.Rows {
		avg := cellF(t, r, i, "avg_tokens")
		maxTok := cellF(t, r, i, "max_tokens")
		if maxTok < 3*avg {
			t.Errorf("step %d: max %v not >> avg %v (straggler disparity lost)", i+1, maxTok, avg)
		}
	}
}

func TestFig4UtilizationDecays(t *testing.T) {
	r, err := Fig4UtilPhases(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) == 0 {
		t.Fatal("empty series")
	}
	// The note carries the early/late summary; re-derive from the series:
	// peak generation utilization must exceed the late-phase tail by 3x.
	var peak, tail float64
	for i := range r.Rows {
		u := cellF(t, r, i, "util_generate")
		if u > peak {
			peak = u
		}
	}
	tail = cellF(t, r, len(r.Rows)-1, "util_generate")
	if peak < 3*tail+0.01 {
		t.Errorf("generation utilization does not decay: peak %v tail %v", peak, tail)
	}
}

func TestFig5LeftSharingDominates(t *testing.T) {
	r, err := Fig5LeftPrefixMemory(quick())
	if err != nil {
		t.Fatal(err)
	}
	for i := range r.Rows {
		bs := cellF(t, r, i, "beam_search_w_prefix")
		wo := cellF(t, r, i, "wo_prefix")
		if bs < 4*wo {
			t.Errorf("iter %d: prefix sharing fits %v beams vs %v unshared — gap too small", i+1, bs, wo)
		}
	}
}

func TestFig5RightOrderingGap(t *testing.T) {
	r, err := Fig5RightHeatmap(quick())
	if err != nil {
		t.Fatal(err)
	}
	naive := cellF(t, r, 0, "adjacent_share_sum")
	grouped := cellF(t, r, 1, "adjacent_share_sum")
	if grouped <= naive {
		t.Errorf("prefix-aware order share %v not above naive %v", grouped, naive)
	}
}

func TestFig6PrefillSaturatesFirst(t *testing.T) {
	r, err := Fig6ThroughputVsKV(quick())
	if err != nil {
		t.Fatal(err)
	}
	// At 0.5 GiB, prefill must be essentially saturated while decode is
	// far from it (the asymmetry that motivates §4.3).
	for i := range r.Rows {
		if cell(t, r, i, "kv_gib") == "0.500" {
			if cellF(t, r, i, "prefill_640") < 0.9 {
				t.Error("prefill not saturated at 0.5 GiB")
			}
			if cellF(t, r, i, "decode_1024") > 0.6 {
				t.Error("decode saturated too early at 0.5 GiB")
			}
			return
		}
	}
	t.Fatal("0.5 GiB row missing")
}

func TestFig10DecodeBatchGrows(t *testing.T) {
	r, err := Fig10RooflineAlloc(quick())
	if err != nil {
		t.Fatal(err)
	}
	first := cellF(t, r, 0, "opt_decode_batch")
	last := cellF(t, r, len(r.Rows)-1, "opt_decode_batch")
	if last <= first {
		t.Errorf("optimal decode batch does not grow with memory: %v -> %v", first, last)
	}
	if tput := cellF(t, r, len(r.Rows)-1, "norm_throughput"); tput < 0.9 {
		t.Errorf("throughput at max memory = %v, want near 1", tput)
	}
}

func TestFig11AllVariantsSpeedUp(t *testing.T) {
	o := quick()
	o.MaxN = 64
	r, err := Fig11SearchVariants(o)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r.Rows {
		if sp := cellF(t, r, i, "speedup"); sp < 1.0 {
			t.Errorf("row %d (%s n=%s): speedup %v < 1",
				i, cell(t, r, i, "method"), cell(t, r, i, "n"), sp)
		}
	}
}

func TestFig12SpeedupGrowsWithN(t *testing.T) {
	o := quick()
	o.MaxN = 128
	r, err := Fig12Goodput(o)
	if err != nil {
		t.Fatal(err)
	}
	// Group rows by (dataset, config); speedup at the largest n must
	// exceed the speedup at the smallest n.
	type key struct{ ds, cfg string }
	firstSp := map[key]float64{}
	lastSp := map[key]float64{}
	for i := range r.Rows {
		k := key{cell(t, r, i, "dataset"), cell(t, r, i, "config")}
		sp := cellF(t, r, i, "speedup")
		if sp < 1.0 {
			t.Errorf("row %d: speedup %v < 1", i, sp)
		}
		if _, ok := firstSp[k]; !ok {
			firstSp[k] = sp
		}
		lastSp[k] = sp
	}
	for k := range firstSp {
		if lastSp[k] <= firstSp[k] {
			t.Errorf("%v: speedup at large n (%v) not above small n (%v)", k, lastSp[k], firstSp[k])
		}
	}
}

func TestFig13LatencyCut(t *testing.T) {
	o := quick()
	o.MaxN = 64
	r, err := Fig13Latency(o)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r.Rows {
		if cut := cellF(t, r, i, "latency_cut_pct"); cut <= 0 {
			t.Errorf("row %d: latency cut %v%% not positive", i, cut)
		}
		bt := cellF(t, r, i, "base_total_s")
		bg := cellF(t, r, i, "base_gen_s")
		bv := cellF(t, r, i, "base_ver_s")
		if bg+bv > bt*1.01 {
			t.Errorf("row %d: breakdown %v+%v exceeds total %v", i, bg, bv, bt)
		}
	}
}

func TestFig14aEquivalence(t *testing.T) {
	o := quick()
	o.MaxN = 64
	o.Problems = 6
	r, err := Fig14aTop1(o)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r.Rows {
		ba := cellF(t, r, i, "baseline_acc_pct")
		fa := cellF(t, r, i, "fasttts_acc_pct")
		if ba != fa {
			t.Errorf("row %d: accuracy diverged %v vs %v (equivalence)", i, ba, fa)
		}
	}
}

func TestFig14bMonotoneInN(t *testing.T) {
	o := quick()
	o.MaxN = 128
	o.Problems = 8
	r, err := Fig14bPassN(o)
	if err != nil {
		t.Fatal(err)
	}
	prevDS, prev := "", -1.0
	for i := range r.Rows {
		ds := cell(t, r, i, "dataset")
		v := cellF(t, r, i, "fasttts_pct")
		if ds == prevDS && v < prev {
			t.Errorf("row %d: pass@N decreased with N (%v -> %v)", i, prev, v)
		}
		prevDS, prev = ds, v
	}
}

func TestFig15AllPanelsSpeedUp(t *testing.T) {
	o := quick()
	o.MaxN = 32
	r, err := Fig15ConstrainedHW(o)
	if err != nil {
		t.Fatal(err)
	}
	panels := map[string]bool{}
	for i := range r.Rows {
		panels[cell(t, r, i, "panel")] = true
		if sp := cellF(t, r, i, "speedup"); sp < 1.0 {
			t.Errorf("row %d (%s): speedup %v < 1", i, cell(t, r, i, "panel"), sp)
		}
	}
	if len(panels) != 3 {
		t.Errorf("panels = %v, want 3", panels)
	}
}

func TestFig16LadderMonotone(t *testing.T) {
	o := quick()
	o.MaxN = 32
	r, err := Fig16Ablation(o)
	if err != nil {
		t.Fatal(err)
	}
	// Within each (config, n) block of 4 variants, the final +P+M+S gain
	// must exceed the baseline (0) and the ladder must not regress badly.
	for i := 0; i+3 < len(r.Rows); i += 4 {
		final := cellF(t, r, i+3, "gain_vs_baseline_pct")
		if final <= 0 {
			t.Errorf("block at row %d: full-system gain %v <= 0", i, final)
		}
	}
}

func TestFig17RightR85Wins(t *testing.T) {
	o := quick()
	o.MaxN = 64
	r, err := Fig17RightTruncation(o)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r.Rows {
		base := cellF(t, r, i, "baseline")
		r0 := cellF(t, r, i, "fasttts_R0.00")
		r85 := cellF(t, r, i, "fasttts_R0.85")
		if r0 <= base {
			t.Errorf("row %d: R=0 goodput %v not above baseline %v", i, r0, base)
		}
		if r85 < r0*0.97 {
			t.Errorf("row %d: R=0.85 (%v) clearly below R=0 (%v)", i, r85, r0)
		}
	}
}

func TestFig17LeftFastTTSHigherUtil(t *testing.T) {
	r, err := Fig17LeftUtil(quick())
	if err != nil {
		t.Fatal(err)
	}
	vllmLate := cellF(t, r, 0, "late_quarter_util")
	fastLate := cellF(t, r, 1, "late_quarter_util")
	if fastLate <= vllmLate {
		t.Errorf("FastTTS late-phase util %v not above vLLM %v", fastLate, vllmLate)
	}
	vllmEarly := cellF(t, r, 0, "early_quarter_util")
	fastEarly := cellF(t, r, 1, "early_quarter_util")
	if fastEarly <= vllmEarly {
		t.Errorf("FastTTS early util %v not above vLLM %v", fastEarly, vllmEarly)
	}
}

func TestFig18LeftOrderingGap(t *testing.T) {
	r, err := Fig18LeftSchedulers(quick())
	if err != nil {
		t.Fatal(err)
	}
	for i := range r.Rows {
		pa := cellF(t, r, i, "prefix_aware_gib")
		rnd := cellF(t, r, i, "random_gib")
		wc := cellF(t, r, i, "worst_case_gib")
		if pa > rnd*1.001 || pa > wc*1.001 {
			t.Errorf("row %d: prefix-aware grows fastest: pa=%v rnd=%v wc=%v", i, pa, rnd, wc)
		}
		// The max-growth adversary dominates random everywhere until the
		// curves converge on the shared total.
		if rnd > wc*1.001 {
			t.Errorf("row %d: random (%v) above worst-case (%v)", i, rnd, wc)
		}
	}
}

func TestFig18RightGainsConcentrateLowMemory(t *testing.T) {
	// This figure's effect needs the real search width (n=256): memory
	// pressure is the phenomenon under test.
	o := RunOpts{Problems: 4, Seed: 42, MaxN: 256}
	r, err := Fig18RightMemoryGain(o)
	if err != nil {
		t.Fatal(err)
	}
	lowMP := cellF(t, r, 0, "gain_MP_pct")
	highMP := cellF(t, r, len(r.Rows)-1, "gain_MP_pct")
	if lowMP <= highMP {
		t.Errorf("M+P gain at low memory (%v%%) not above high memory (%v%%)", lowMP, highMP)
	}
	if lowMP < 10 {
		t.Errorf("M+P gain at 1.5 GiB = %v%%, want substantial", lowMP)
	}
}

func TestExtensionsRegistered(t *testing.T) {
	ids := map[string]bool{}
	for _, f := range Extensions() {
		if f.ID == "" || f.Run == nil {
			t.Errorf("malformed extension %+v", f)
		}
		ids[f.ID] = true
	}
	for _, want := range []string{"a1", "a2", "a3", "a4", "a5", "s1"} {
		if !ids[want] {
			t.Errorf("extension %s missing", want)
		}
	}
	if _, err := ByID("a5"); err != nil {
		t.Error("ByID should resolve extensions")
	}
}

func TestAblationTruncationMonotone(t *testing.T) {
	o := quick()
	r, err := AblationTruncationSweep(o)
	if err != nil {
		t.Fatal(err)
	}
	first := cellF(t, r, 0, "goodput_tok_s")
	last := cellF(t, r, len(r.Rows)-1, "goodput_tok_s")
	if last <= first*0.98 {
		t.Errorf("R=1 goodput %v not above R=0 %v", last, first)
	}
	prev := -1.0
	for i := range r.Rows {
		ret := cellF(t, r, i, "spec_retained_tokens")
		// Near-monotone: more retention means fewer decode rounds and thus
		// fewer speculation opportunities, so allow small dips.
		if ret < prev*0.93 {
			t.Errorf("retained tokens dropped sharply in R at row %d (%v -> %v)", i, prev, ret)
		}
		prev = ret
	}
}

// The score-bin ablation's note, as far as it holds at quick size: any
// binning beats treating every beam alike on goodput, and the most bins
// keep a smaller fraction of their speculation than one bin does.
func TestAblationSpecBinsTradeoff(t *testing.T) {
	r, err := AblationSpecBins(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 || cell(t, r, 0, "bins") != "1" || cell(t, r, 3, "bins") != "8" {
		t.Fatalf("rows = %v, want bins 1, 2, 4, 8", r.Rows)
	}
	one := cellF(t, r, 0, "goodput_tok_s")
	for i := 1; i < len(r.Rows); i++ {
		if g := cellF(t, r, i, "goodput_tok_s"); g <= one {
			t.Errorf("%s bins: goodput %v not above one bin's %v", cell(t, r, i, "bins"), g, one)
		}
	}
	for i := range r.Rows {
		if f := cellF(t, r, i, "retained_frac"); f <= 0 || f > 1 {
			t.Errorf("row %d: retained fraction %v outside (0, 1]", i, f)
		}
	}
	if first, last := cellF(t, r, 0, "retained_frac"), cellF(t, r, 3, "retained_frac"); last >= first {
		t.Errorf("retained fraction at 8 bins %v not below 1 bin's %v", last, first)
	}
}

func TestAblationQuantizationHelps(t *testing.T) {
	o := quick()
	r, err := AblationQuantization(o)
	if err != nil {
		t.Fatal(err)
	}
	fp16 := cellF(t, r, 0, "goodput_tok_s")
	int4 := cellF(t, r, 2, "goodput_tok_s")
	if int4 <= fp16 {
		t.Errorf("int4 goodput %v not above fp16 %v", int4, fp16)
	}
	if cellF(t, r, 2, "kv_budget_gib") <= cellF(t, r, 0, "kv_budget_gib") {
		t.Error("quantization did not free KV budget")
	}
}

func TestAblationBlockSizeFragmentation(t *testing.T) {
	r, err := AblationBlockSize(quick())
	if err != nil {
		t.Fatal(err)
	}
	prevFrag := -1.0
	for i := range r.Rows {
		frag := cellF(t, r, i, "frag_overhead_pct")
		if frag < prevFrag {
			t.Errorf("fragmentation not monotone in block size at row %d", i)
		}
		prevFrag = frag
	}
	if cellF(t, r, 0, "frag_overhead_pct") != 0 {
		t.Error("token-granular allocation should have zero fragmentation")
	}
	first := cellF(t, r, 0, "resident_beams")
	last := cellF(t, r, len(r.Rows)-1, "resident_beams")
	if last > first {
		t.Error("larger blocks should never fit more beams")
	}
}

func TestServingLoadPreemption(t *testing.T) {
	o := quick()
	o.Problems = 4
	r, err := ExtServingLoad(o)
	if err != nil {
		t.Fatal(err)
	}
	// FastTTS rows: speculation grows as arrivals spread out.
	var fastSpec []float64
	for i := range r.Rows {
		if cell(t, r, i, "system") == "fasttts" {
			fastSpec = append(fastSpec, cellF(t, r, i, "spec_tokens"))
			// FastTTS must beat the baseline row above it.
			fl := cellF(t, r, i, "mean_latency_s")
			bl := cellF(t, r, i-1, "mean_latency_s")
			if fl >= bl {
				t.Errorf("row %d: fasttts latency %v not below baseline %v", i, fl, bl)
			}
		} else if got := cellF(t, r, i, "spec_tokens"); got != 0 {
			t.Errorf("baseline speculated %v tokens", got)
		}
	}
	if len(fastSpec) < 2 || fastSpec[len(fastSpec)-1] <= fastSpec[0] {
		t.Errorf("speculation should grow with inter-arrival gap: %v", fastSpec)
	}
}

func TestAblationSplitRatioCompetitive(t *testing.T) {
	o := quick()
	r, err := AblationSplitRatio(o)
	if err != nil {
		t.Fatal(err)
	}
	best := 0.0
	for i := 0; i < len(r.Rows)-1; i++ {
		if v := cellF(t, r, i, "goodput_tok_s"); v > best {
			best = v
		}
	}
	roofline := cellF(t, r, len(r.Rows)-1, "goodput_tok_s")
	if roofline < best*0.9 {
		t.Errorf("roofline allocation %v more than 10%% behind best static %v", roofline, best)
	}
}

func TestReportJSONL(t *testing.T) {
	r := &Report{ID: "x", Title: "T", Header: []string{"a", "b"},
		Rows: [][]string{{"1", "2"}, {"3", "4"}}}
	out := r.JSONL()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d, want 3 (meta + 2 rows)", len(lines))
	}
	if !strings.Contains(lines[0], `"figure":"x"`) {
		t.Errorf("meta line = %s", lines[0])
	}
	if !strings.Contains(lines[1], `"a":"1"`) || !strings.Contains(lines[1], `"b":"2"`) {
		t.Errorf("row line = %s", lines[1])
	}
}

func TestMCTSComparisonShape(t *testing.T) {
	o := quick()
	o.Problems = 4
	r, err := ExtMCTSComparison(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// §2.2's exclusion rationale: MCTS must not beat beam search's
	// latency (lookahead adds overhead).
	beam := cellF(t, r, 0, "latency_s")
	mctsLat := cellF(t, r, 2, "latency_s")
	if mctsLat < beam*0.95 {
		t.Errorf("MCTS latency %v clearly below beam search %v — contradicts §2.2", mctsLat, beam)
	}
}
