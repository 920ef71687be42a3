package workload

import (
	"fmt"
	"math"
	"testing"

	"fasttts/internal/rng"
)

func TestSpecByName(t *testing.T) {
	for _, name := range []string{"AIME24", "AMC23", "MATH500", "HumanEval"} {
		s, err := SpecByName(name)
		if err != nil {
			t.Fatalf("SpecByName(%q): %v", name, err)
		}
		if s.Name != name {
			t.Errorf("got %q", s.Name)
		}
	}
	if _, err := SpecByName("GSM8K"); err == nil {
		t.Error("expected error for unknown dataset")
	}
}

func TestDatasetDeterminism(t *testing.T) {
	a := NewDataset(AIME24, rng.New(11))
	b := NewDataset(AIME24, rng.New(11))
	if len(a.Problems) != len(b.Problems) {
		t.Fatal("sizes differ")
	}
	for i := range a.Problems {
		if a.Problems[i].Difficulty != b.Problems[i].Difficulty ||
			a.Problems[i].PromptTokens != b.Problems[i].PromptTokens {
			t.Fatalf("problem %d differs between identical seeds", i)
		}
	}
	c := NewDataset(AIME24, rng.New(12))
	same := 0
	for i := range a.Problems {
		if a.Problems[i].Difficulty == c.Problems[i].Difficulty {
			same++
		}
	}
	if same == len(a.Problems) {
		t.Error("different seeds produced identical dataset")
	}
}

func TestDatasetBounds(t *testing.T) {
	ds := NewDataset(AMC23, rng.New(3))
	if len(ds.Problems) != AMC23.Problems {
		t.Fatalf("problems = %d", len(ds.Problems))
	}
	for _, p := range ds.Problems {
		if p.Difficulty < AMC23.DiffLo || p.Difficulty > AMC23.DiffHi {
			t.Errorf("difficulty %v outside [%v,%v]", p.Difficulty, AMC23.DiffLo, AMC23.DiffHi)
		}
		if p.PromptTokens < AMC23.PromptLo || p.PromptTokens > AMC23.PromptHi {
			t.Errorf("prompt %d outside range", p.PromptTokens)
		}
	}
}

func TestAIMEHarderThanAMC(t *testing.T) {
	root := rng.New(5)
	aime := NewDataset(AIME24, root)
	amc := NewDataset(AMC23, root)
	ma, mb := 0.0, 0.0
	for _, p := range aime.Problems {
		ma += p.Difficulty
	}
	for _, p := range amc.Problems {
		mb += p.Difficulty
	}
	ma /= float64(len(aime.Problems))
	mb /= float64(len(amc.Problems))
	if ma <= mb {
		t.Errorf("mean difficulty AIME %.2f <= AMC %.2f", ma, mb)
	}
}

// TestProblemKey pins Key to the "%s/%d" prefix identity the fleet's
// prefix directories and the memory plane always cached under: on every
// problem of every spec, stored once and allocation-free, and on a
// hand-built Problem, computed per call.
func TestProblemKey(t *testing.T) {
	for _, spec := range []DatasetSpec{AIME24, AMC23, MATH500, HumanEval,
		AIME24FewShot, AMC23FewShot, MATH500FewShot} {
		ds := NewDataset(spec, rng.New(1))
		for _, p := range ds.Problems {
			if got, want := p.Key(), fmt.Sprintf("%s/%d", p.Dataset, p.Index); got != want {
				t.Fatalf("%s problem %d: Key() = %q, want %q", spec.Name, p.Index, got, want)
			}
		}
		var sink string
		allocs := testing.AllocsPerRun(10, func() {
			for _, p := range ds.Problems {
				sink = p.Key()
			}
		})
		if allocs != 0 || sink == "" {
			t.Errorf("%s: Key() over the dataset allocates %v times, want 0", spec.Name, allocs)
		}
	}
	for _, p := range []*Problem{{Dataset: "custom", Index: 17}, {Index: -3}, {}} {
		if got, want := p.Key(), fmt.Sprintf("%s/%d", p.Dataset, p.Index); got != want {
			t.Errorf("hand-built %+v: Key() = %q, want %q", *p, got, want)
		}
	}
}

func TestSubset(t *testing.T) {
	ds := NewDataset(AIME24, rng.New(1))
	if got := len(ds.Subset(5)); got != 5 {
		t.Errorf("Subset(5) = %d", got)
	}
	if got := len(ds.Subset(10000)); got != AIME24.Problems {
		t.Errorf("oversized Subset = %d", got)
	}
}

// Step lengths must be heavy-tailed: the max over many samples should
// dwarf the mean (Fig 3 right shows ~200 avg vs >1000 max).
func TestStepLengthHeavyTail(t *testing.T) {
	ds := NewDataset(AIME24, rng.New(7))
	p := ds.Problems[0]
	r := rng.New(99)
	var sum float64
	maxLen := 0
	const n = 4000
	for i := 0; i < n; i++ {
		st := &PathState{}
		s := SampleStep(p, st, SkillQwen1_5B, 0, r)
		sum += float64(s.Tokens)
		if s.Tokens > maxLen {
			maxLen = s.Tokens
		}
	}
	mean := sum / n
	if mean < 80 || mean > 350 {
		t.Errorf("mean step length = %.0f, want ~120-250 (AIME calibration)", mean)
	}
	if float64(maxLen) < 3.5*mean {
		t.Errorf("max step %d not heavy-tailed vs mean %.0f", maxLen, mean)
	}
}

func TestStepCapAndNonTerminalWhenCapped(t *testing.T) {
	ds := NewDataset(AIME24, rng.New(7))
	p := ds.Problems[0]
	r := rng.New(3)
	for i := 0; i < 500; i++ {
		st := &PathState{}
		s := SampleStep(p, st, SkillQwen1_5B, 16, r)
		if s.Tokens > 16 {
			t.Fatalf("step %d exceeds cap", s.Tokens)
		}
		// A capped step may only be terminal via the MaxSteps guard,
		// which cannot fire at step 0 (MaxSteps is 10).
		if s.Tokens == 16 && s.Terminal {
			t.Fatal("capped step marked terminal")
		}
	}
}

func TestMaxStepsForcesTermination(t *testing.T) {
	ds := NewDataset(AIME24, rng.New(7))
	p := ds.Problems[0]
	r := rng.New(4)
	st := &PathState{Steps: p.spec.MaxSteps - 1}
	s := SampleStep(p, st, SkillQwen1_5B, 0, r)
	if !s.Terminal {
		t.Error("step at MaxSteps-1 must terminate")
	}
}

func TestApplyStep(t *testing.T) {
	st := &PathState{}
	ApplyStep(st, Step{Tokens: 40, QualityDelta: 0.2, Terminal: false})
	if st.Steps != 1 || st.Tokens != 40 || st.Quality != 0.2 || st.Terminated {
		t.Errorf("state = %+v", st)
	}
	ApplyStep(st, Step{Tokens: 10, QualityDelta: -0.1, Terminal: true})
	if st.Steps != 2 || st.Tokens != 50 || !st.Terminated {
		t.Errorf("state = %+v", st)
	}
	if math.Abs(st.Quality-0.1) > 1e-12 {
		t.Errorf("quality = %v", st.Quality)
	}
}

func TestSkillDriftOrdering(t *testing.T) {
	// On the same problems, the 7B generator should accumulate more
	// quality than the 1.5B one (it's the reason 7B models are stronger).
	ds := NewDataset(AMC23, rng.New(9))
	mean := func(g GeneratorSkill, seed uint64) float64 {
		r := rng.New(seed)
		total := 0.0
		for _, p := range ds.Problems {
			st := &PathState{}
			for i := 0; i < 6; i++ {
				s := SampleStep(p, st, g, 0, r)
				ApplyStep(st, s)
			}
			total += st.Quality
		}
		return total / float64(len(ds.Problems))
	}
	q15 := mean(SkillQwen1_5B, 21)
	q7 := mean(SkillQwen7B, 21)
	if q7 <= q15 {
		t.Errorf("7B quality %.3f <= 1.5B quality %.3f", q7, q15)
	}
}

func TestScoreInRangeAndTracksQuality(t *testing.T) {
	r := rng.New(13)
	good := &PathState{Quality: 1.5}
	bad := &PathState{Quality: -1.5}
	var sg, sb float64
	for i := 0; i < 300; i++ {
		sg += Score(good, SkillShepherd7B, r)
		sb += Score(bad, SkillShepherd7B, r)
	}
	sg /= 300
	sb /= 300
	if sg <= sb {
		t.Errorf("score of good path %.3f <= bad path %.3f", sg, sb)
	}
	for i := 0; i < 300; i++ {
		s := Score(good, SkillSkywork1_5B, r)
		if s < 0 || s > 1 {
			t.Fatalf("score %v outside [0,1]", s)
		}
	}
}

// Consecutive PRM scores of the same path must be positively correlated
// (the property §4.1.1's speculative-candidate heuristic relies on).
func TestScoreAutocorrelation(t *testing.T) {
	r := rng.New(17)
	var xs, ys []float64
	for path := 0; path < 400; path++ {
		st := &PathState{Quality: 0}
		s1 := Score(st, SkillShepherd7B, r)
		s2 := Score(st, SkillShepherd7B, r)
		xs = append(xs, s1)
		ys = append(ys, s2)
	}
	if rho := pearson(xs, ys); rho < 0.3 {
		t.Errorf("consecutive-score correlation = %.3f, want > 0.3", rho)
	}
}

func TestOracleVerifierNoiseless(t *testing.T) {
	r := rng.New(19)
	st := &PathState{Quality: 0.5}
	a := Score(st, SkillOracleExact, r)
	b := Score(st, SkillOracleExact, r)
	if a != b {
		t.Errorf("oracle scores differ: %v vs %v", a, b)
	}
}

func TestAnswerDistribution(t *testing.T) {
	ds := NewDataset(AMC23, rng.New(23))
	p := ds.Problems[0]
	r := rng.New(29)
	// A very high-quality path answers correctly almost always.
	correct := 0
	for i := 0; i < 500; i++ {
		if Answer(p, &PathState{Quality: 3}, r) == 0 {
			correct++
		}
	}
	if correct < 450 {
		t.Errorf("high-quality correct rate %d/500", correct)
	}
	// A terrible path almost never answers correctly, and wrong answers
	// scatter across the space.
	wrong := map[int]int{}
	correct = 0
	for i := 0; i < 500; i++ {
		a := Answer(p, &PathState{Quality: -3}, r)
		if a == 0 {
			correct++
		} else {
			wrong[a]++
		}
	}
	if correct > 50 {
		t.Errorf("low-quality correct rate %d/500", correct)
	}
	if len(wrong) < 3 {
		t.Errorf("wrong answers not scattered: %v", wrong)
	}
	for a := range wrong {
		if a < 1 || a >= p.AnswerSpace {
			t.Errorf("answer %d outside space", a)
		}
	}
}

// TestAnswerSharedTableMatchesHandBuilt: a NewDataset problem draws its
// wrong answers from the dataset's shared Zipf table, a hand-built copy
// from a table built inside Answer. From equal streams both must give the
// same answers draw for draw, on every spec, over paths of every quality.
func TestAnswerSharedTableMatchesHandBuilt(t *testing.T) {
	for _, spec := range []DatasetSpec{AIME24, AMC23, MATH500, HumanEval,
		AIME24FewShot, AMC23FewShot, MATH500FewShot} {
		ds := NewDataset(spec, rng.New(37))
		for _, p := range ds.Subset(5) {
			if p.wrong == nil {
				t.Fatalf("%s problem %d: NewDataset stored no table", spec.Name, p.Index)
			}
			hand := &Problem{Dataset: p.Dataset, Index: p.Index, Difficulty: p.Difficulty,
				PromptTokens: p.PromptTokens, AnswerSpace: p.AnswerSpace}
			got, want := rng.New(41).ChildN(spec.Name, p.Index), rng.New(41).ChildN(spec.Name, p.Index)
			wrong := 0
			for i := 0; i < 400; i++ {
				st := &PathState{Quality: -3 + float64(i%9)*0.5}
				g, w := Answer(p, st, got), Answer(hand, st, want)
				if g != w {
					t.Fatalf("%s problem %d draw %d: shared table %d, hand-built %d", spec.Name, p.Index, i, g, w)
				}
				if g != 0 {
					wrong++
				}
			}
			if wrong == 0 {
				t.Fatalf("%s problem %d: no wrong answer drawn", spec.Name, p.Index)
			}
		}
	}
}

func TestCorrectProbMonotoneInQuality(t *testing.T) {
	ds := NewDataset(AIME24, rng.New(31))
	p := ds.Problems[0]
	prev := -1.0
	for q := -2.0; q <= 2.0; q += 0.5 {
		pc := CorrectProb(p, &PathState{Quality: q})
		if pc <= prev {
			t.Fatalf("CorrectProb not monotone at q=%v", q)
		}
		prev = pc
	}
}

func TestHarderProblemsLowerCorrectProb(t *testing.T) {
	easy := &Problem{Difficulty: 0.3}
	hard := &Problem{Difficulty: 0.9}
	st := &PathState{Quality: 0.5}
	if CorrectProb(easy, st) <= CorrectProb(hard, st) {
		t.Error("difficulty should reduce correctness probability")
	}
}

func pearson(xs, ys []float64) float64 {
	n := float64(len(xs))
	var mx, my float64
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	mx /= n
	my /= n
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	return sxy / math.Sqrt(sxx*syy)
}

// HumanEval's coding steps are shorter and tighter than AIME's math
// steps (§6.4) — the workload property behind Fig 15's coding panel.
func TestHumanEvalShorterStepsThanAIME(t *testing.T) {
	root := rng.New(41)
	mean := func(spec DatasetSpec) (avg float64, max int) {
		ds := NewDataset(spec, root)
		r := rng.New(43).Child(spec.Name)
		sum, count := 0.0, 0
		for _, p := range ds.Subset(5) {
			for i := 0; i < 400; i++ {
				st := &PathState{}
				s := SampleStep(p, st, SkillQwen1_5B, 0, r)
				sum += float64(s.Tokens)
				count++
				if s.Tokens > max {
					max = s.Tokens
				}
			}
		}
		return sum / float64(count), max
	}
	hAvg, _ := mean(HumanEval)
	aAvg, _ := mean(AIME24)
	if hAvg >= aAvg {
		t.Errorf("HumanEval mean step %.0f not below AIME %.0f", hAvg, aAvg)
	}
}

// Datasets terminate within their MaxSteps bound for any generator.
func TestTerminationWithinMaxSteps(t *testing.T) {
	root := rng.New(47)
	for _, spec := range []DatasetSpec{AIME24, AMC23, MATH500, HumanEval} {
		ds := NewDataset(spec, root)
		r := rng.New(53).Child(spec.Name)
		for _, p := range ds.Subset(4) {
			st := &PathState{}
			for !st.Terminated {
				s := SampleStep(p, st, SkillQwen1_5B, 0, r)
				ApplyStep(st, s)
				if st.Steps > spec.MaxSteps {
					t.Fatalf("%s: path exceeded MaxSteps %d", spec.Name, spec.MaxSteps)
				}
			}
		}
	}
}
