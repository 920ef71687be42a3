// Package workload generates the synthetic reasoning workload that stands
// in for real LLM generation (README.md's opening section makes the
// substitution argument).
//
// The model reproduces the distributional properties every FastTTS
// mechanism depends on:
//
//   - Step lengths are heavy-tailed (lognormal), reproducing the extreme
//     average-vs-max disparity of Fig 3 (right) that causes stragglers.
//   - Each path carries a latent quality that performs a random walk whose
//     drift depends on generator skill and problem difficulty; the PRM
//     score is a noisy AR(1) observation of quality, so consecutive scores
//     are correlated — the property §4.1.1's speculative candidate
//     selection exploits.
//   - Final answers are sampled from terminal quality, making Top-1
//     (majority-vote) and Pass@N accuracy measurable (Fig 14).
//
// All sampling is driven by rng.Stream, so runs are deterministic.
package workload

import (
	"fmt"
	"math"
	"strconv"

	"fasttts/internal/rng"
)

// DatasetSpec parameterizes a benchmark dataset.
type DatasetSpec struct {
	Name     string
	Problems int
	// Difficulty range (uniform).
	DiffLo, DiffHi float64
	// Step-length lognormal parameters (of token count per thinking step).
	StepLogMu, StepLogSigma float64
	// MinStepTokens floors sampled steps.
	MinStepTokens int
	// MaxSteps bounds the reasoning depth.
	MaxSteps int
	// TypicalSteps is where termination probability reaches 1/2.
	TypicalSteps float64
	// PromptTokens is the question length range (uniform ints).
	PromptLo, PromptHi int
	// AnswerSpace is the number of distinct plausible answers (1 correct +
	// AnswerSpace-1 distractors).
	AnswerSpace int
	// QualityDriftScale scales per-step quality movement.
	QualityDriftScale float64
}

// Specs for the paper's benchmarks (§6.1, §6.4). Step-length parameters
// are calibrated so that on AIME the mean step is ≈200 tokens with
// outliers beyond 1000 (Fig 3 right).
var (
	AIME24 = DatasetSpec{
		Name: "AIME24", Problems: 30,
		DiffLo: 0.74, DiffHi: 0.95,
		StepLogMu: 5.05, StepLogSigma: 0.72, MinStepTokens: 12,
		MaxSteps: 10, TypicalSteps: 6.5,
		PromptLo: 80, PromptHi: 160,
		AnswerSpace: 250, QualityDriftScale: 1.0,
	}
	AMC23 = DatasetSpec{
		Name: "AMC23", Problems: 40,
		DiffLo: 0.50, DiffHi: 0.88,
		StepLogMu: 4.75, StepLogSigma: 0.65, MinStepTokens: 10,
		MaxSteps: 8, TypicalSteps: 5.0,
		PromptLo: 60, PromptHi: 130,
		AnswerSpace: 40, QualityDriftScale: 1.0,
	}
	MATH500 = DatasetSpec{
		Name: "MATH500", Problems: 500,
		DiffLo: 0.40, DiffHi: 0.88,
		StepLogMu: 4.60, StepLogSigma: 0.62, MinStepTokens: 8,
		MaxSteps: 8, TypicalSteps: 4.5,
		PromptLo: 50, PromptHi: 120,
		AnswerSpace: 20, QualityDriftScale: 1.0,
	}
	HumanEval = DatasetSpec{
		Name: "HumanEval", Problems: 164,
		DiffLo: 0.35, DiffHi: 0.72,
		StepLogMu: 4.45, StepLogSigma: 0.55, MinStepTokens: 8,
		MaxSteps: 6, TypicalSteps: 3.8,
		PromptLo: 100, PromptHi: 200,
		AnswerSpace: 6, QualityDriftScale: 0.9,
	}
)

// Few-shot serving variants: the same problems and reasoning dynamics,
// but each prompt carries a multi-shot chain-of-thought exemplar
// preamble, so prompts run thousands of tokens instead of ~100. This is
// the regime where prompt-prefix KV reuse has real economics — a prompt's
// KV state is ~100 MiB and its re-prefill costs real device time — which
// is what the memory-plane scenarios (cache-thrash, shared-prefix-storm)
// stress. Step parameters match the base datasets, so only prefill and
// cache behavior differ.
var (
	AIME24FewShot = func() DatasetSpec {
		s := AIME24
		s.Name = "AIME24-fewshot"
		s.PromptLo, s.PromptHi = 3600, 4800
		return s
	}()
	AMC23FewShot = func() DatasetSpec {
		s := AMC23
		s.Name = "AMC23-fewshot"
		s.PromptLo, s.PromptHi = 3000, 4000
		return s
	}()
	MATH500FewShot = func() DatasetSpec {
		s := MATH500
		s.Name = "MATH500-fewshot"
		s.PromptLo, s.PromptHi = 3200, 4200
		return s
	}()
)

// SpecByName returns the dataset spec with the given name.
func SpecByName(name string) (DatasetSpec, error) {
	for _, s := range []DatasetSpec{AIME24, AMC23, MATH500, HumanEval,
		AIME24FewShot, AMC23FewShot, MATH500FewShot} {
		if s.Name == name {
			return s, nil
		}
	}
	return DatasetSpec{}, fmt.Errorf("workload: unknown dataset %q", name)
}

// Problem is one benchmark question.
type Problem struct {
	Dataset      string
	Index        int
	Difficulty   float64
	PromptTokens int
	AnswerSpace  int
	spec         DatasetSpec
	key          string         // Key(), built once by NewDataset
	meanStep     float64        // MeanStepTokens(), computed once by NewDataset
	wrong        *rng.ZipfTable // Answer's distractor table, shared across a NewDataset
}

// MeanStepTokens is the mean length of one reasoning step in tokens, the
// mean exp(μ + σ²/2) of the dataset's lognormal step length. NewDataset
// computes it once per problem; a hand-built Problem computes it per call.
func (p *Problem) MeanStepTokens() float64 {
	if p.meanStep != 0 {
		return p.meanStep
	}
	return math.Exp(p.spec.StepLogMu + p.spec.StepLogSigma*p.spec.StepLogSigma/2)
}

// Depth returns the dataset's reasoning-depth parameters, TypicalSteps and
// MaxSteps, without copying its spec.
func (p *Problem) Depth() (typical float64, max int) {
	return p.spec.TypicalSteps, p.spec.MaxSteps
}

// Key identifies the problem's prompt prefix, "<Dataset>/<Index>":
// requests for the same problem share the prompt's KV, so the fleet's
// prefix directories and the memory plane cache under it. NewDataset
// stores it once per problem; a hand-built Problem computes it per call.
func (p *Problem) Key() string {
	if p.key != "" {
		return p.key
	}
	return p.Dataset + "/" + strconv.Itoa(p.Index)
}

// Dataset is a realized set of problems.
type Dataset struct {
	Spec     DatasetSpec
	Problems []*Problem
}

// NewDataset materializes the spec deterministically from the stream.
func NewDataset(spec DatasetSpec, root *rng.Stream) *Dataset {
	ds := &Dataset{Spec: spec}
	wrong := wrongAnswers(spec.AnswerSpace)
	r := root.Child("dataset/" + spec.Name)
	for i := 0; i < spec.Problems; i++ {
		pr := r.ChildN("problem", i)
		p := &Problem{
			Dataset:      spec.Name,
			Index:        i,
			Difficulty:   spec.DiffLo + pr.Float64()*(spec.DiffHi-spec.DiffLo),
			PromptTokens: spec.PromptLo + pr.IntN(spec.PromptHi-spec.PromptLo+1),
			AnswerSpace:  spec.AnswerSpace,
			spec:         spec,
			wrong:        wrong,
		}
		p.key = p.Key()
		p.meanStep = p.MeanStepTokens()
		ds.Problems = append(ds.Problems, p)
	}
	return ds
}

// Subset returns the first n problems (or all if n is larger).
func (d *Dataset) Subset(n int) []*Problem {
	if n > len(d.Problems) {
		n = len(d.Problems)
	}
	return d.Problems[:n]
}

// GeneratorSkill captures a generator model's reasoning capability; used
// as the drift of the latent quality walk.
type GeneratorSkill struct {
	Name string
	// Skill in (0,1): expected per-step quality gain scale.
	Skill float64
	// Explore is the per-step quality noise (diversity across beams).
	Explore float64
}

// Skills for the paper's generators.
var (
	SkillQwen1_5B = GeneratorSkill{Name: "Qwen2.5-Math-1.5B", Skill: 0.50, Explore: 0.30}
	SkillQwen7B   = GeneratorSkill{Name: "Qwen2.5-Math-7B", Skill: 0.62, Explore: 0.26}
)

// VerifierSkill captures a PRM's scoring fidelity.
type VerifierSkill struct {
	Name string
	// Noise is the observation std of the PRM score.
	Noise float64
	// Rho is the AR(1) correlation of score noise between consecutive
	// steps of the same path (§4.1.1 relies on Rho > 0).
	Rho float64
}

var (
	SkillShepherd7B  = VerifierSkill{Name: "Math-Shepherd-Mistral-7B", Noise: 0.13, Rho: 0.70}
	SkillSkywork1_5B = VerifierSkill{Name: "Skywork-o1-Open-PRM-1.5B", Noise: 0.18, Rho: 0.65}
	SkillOracleExact = VerifierSkill{Name: "oracle", Noise: 0.0, Rho: 0.0}
)

// PathState is the evolving latent state of one reasoning path. Children
// created by branching copy the parent's state (and then diverge).
type PathState struct {
	Quality    float64 // latent solution quality
	Noise      float64 // AR(1) PRM observation noise state
	Steps      int     // completed thinking steps
	Tokens     int     // generated tokens (excluding prompt)
	Terminated bool
	LastScore  float64 // most recent PRM score (set by Score)
}

// Step is the outcome of generating one thinking step.
type Step struct {
	Tokens       int
	QualityDelta float64
	Terminal     bool
}

// SampleStep draws the next thinking step for a path. maxTokens caps the
// step length (varying-granularity search sets this per step index); a
// capped step is never terminal — the thought was cut mid-stream and
// continues next step.
func SampleStep(p *Problem, st *PathState, g GeneratorSkill, maxTokens int, r *rng.Stream) Step {
	spec := p.spec
	n := int(r.LogNormal(spec.StepLogMu, spec.StepLogSigma))
	if n < spec.MinStepTokens {
		n = spec.MinStepTokens
	}
	capped := false
	if maxTokens > 0 && n > maxTokens {
		n = maxTokens
		capped = true
	}
	// Quality drift: skilled generators on easy problems improve; weak
	// generators on hard problems wander or regress.
	drift := (g.Skill - 0.60*p.Difficulty) * spec.QualityDriftScale * 0.25
	delta := drift + r.Norm(0, g.Explore*0.35)
	terminal := false
	if !capped {
		// Termination probability rises with depth and with quality
		// (confident solutions conclude sooner).
		x := (float64(st.Steps+1) - spec.TypicalSteps + st.Quality) / 1.5
		terminal = r.Bool(logistic(x))
	}
	if st.Steps+1 >= spec.MaxSteps {
		terminal = true
	}
	return Step{Tokens: n, QualityDelta: delta, Terminal: terminal}
}

// ApplyStep folds a sampled step into the path state.
func ApplyStep(st *PathState, s Step) {
	st.Quality += s.QualityDelta
	st.Steps++
	st.Tokens += s.Tokens
	if s.Terminal {
		st.Terminated = true
	}
}

// Score draws the PRM's score for the path's current state, advancing the
// AR(1) noise. Scores live in [0, 1]; higher is better.
func Score(st *PathState, v VerifierSkill, r *rng.Stream) float64 {
	innov := r.Norm(0, v.Noise)
	st.Noise = v.Rho*st.Noise + math.Sqrt(1-v.Rho*v.Rho)*innov
	s := logistic(1.6*st.Quality) + st.Noise
	if s < 0 {
		s = 0
	}
	if s > 1 {
		s = 1
	}
	st.LastScore = s
	return s
}

// Answer samples the final answer of a terminated path. Answer 0 is the
// correct one; wrong answers are Zipf-distributed over the distractors so
// that majority voting is meaningful. A NewDataset problem draws from its
// dataset's table; a hand-built one builds the table per call.
func Answer(p *Problem, st *PathState, r *rng.Stream) int {
	pCorrect := logistic(4.0 * (st.Quality - answerBar(p)))
	if r.Bool(pCorrect) {
		return 0
	}
	wrong := p.wrong
	if wrong == nil {
		wrong = wrongAnswers(p.AnswerSpace)
	}
	return 1 + wrong.Draw(r)
}

// wrongAnswers is the Zipf table over an answer space's distractors.
func wrongAnswers(answerSpace int) *rng.ZipfTable {
	return rng.NewZipfTable(answerSpace-1, 0.8)
}

// answerBar is the quality threshold at which a path answers correctly
// half the time; harder problems demand more.
func answerBar(p *Problem) float64 {
	return 5.1*p.Difficulty - 2.78
}

// CorrectProb exposes the probability a path with the given state would
// answer correctly (for tests and analytic calibration).
func CorrectProb(p *Problem, st *PathState) float64 {
	return logistic(4.0 * (st.Quality - answerBar(p)))
}

func logistic(x float64) float64 { return 1 / (1 + math.Exp(-x)) }
