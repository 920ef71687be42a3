package core

import (
	"container/heap"
	"errors"
	"fmt"
	"math"

	"fasttts/internal/alloc"
	"fasttts/internal/engine"
	"fasttts/internal/kvcache"
	"fasttts/internal/metrics"
	"fasttts/internal/rng"
	"fasttts/internal/sched"
	"fasttts/internal/search"
	"fasttts/internal/sim"
	"fasttts/internal/trace"
	"fasttts/internal/verify"
	"fasttts/internal/workload"
)

// Runner executes TTS searches for a fixed deployment configuration.
// Each Solve call runs on a fresh virtual serving stack, so Runners are
// reusable across problems.
type Runner struct {
	cfg Config
}

// NewRunner validates the configuration and returns a Runner.
func NewRunner(cfg Config) (*Runner, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Runner{cfg: cfg}, nil
}

// Solve runs the configured TTS search for one problem.
func (r *Runner) Solve(p *workload.Problem) (*Result, error) {
	s, err := newSolver(r.cfg, p, nil)
	if err != nil {
		return nil, err
	}
	return s.run()
}

// SolveWithPreemption is Solve with a preemption probe: while the probe
// returns true, speculative execution is suspended (two-phase scheduling,
// §4.1.2). The server uses this to keep responsiveness under new
// arrivals.
func (r *Runner) SolveWithPreemption(p *workload.Problem, preempt func(now float64) bool) (*Result, error) {
	s, err := newSolver(r.cfg, p, preempt)
	if err != nil {
		return nil, err
	}
	return s.run()
}

const promptNode = 0

type solver struct {
	cfg Config
	p   *workload.Problem

	clk *sim.Clock
	gen *engine.Engine
	ver *verify.Verifier

	root      *rng.Stream
	orderRand *rng.Stream
	selRand   *rng.Stream

	kvBudget int64
	offload  bool
	meanStep int

	nextNode  int
	nextBeam  int
	active    []*beam
	finished  []FinalPath
	iter      int
	abandoned int

	specTok      int64
	specRetained int64
	recomputed   int64

	maxIters int
	begun    bool

	specExt []kvcache.Run // execTrie's speculative-extension path, reused

	// preempt is probed during decode rounds; while it returns true,
	// speculative execution is suspended (§4.1.2). The multi-tenant server
	// swaps it per device slice.
	preempt func(now float64) bool
}

func newSolver(cfg Config, p *workload.Problem, preempt func(float64) bool) (*solver, error) {
	budget, err := cfg.KVBudget()
	if err != nil {
		return nil, err
	}
	clk := &sim.Clock{}
	genEng, err := engine.New("generator", cfg.Generator, cfg.GPU, budget/2, clk, cfg.Recorder)
	if err != nil {
		return nil, err
	}
	verEng, err := engine.New("verifier", cfg.Verifier, cfg.GPU, budget/2, clk, cfg.Recorder)
	if err != nil {
		return nil, err
	}
	// The strategy's launch cap (first-finish's k chains) narrows the
	// policy exactly like the elastic governor's width knob, so algorithm
	// invariants (n >= b) hold by construction.
	if cfg.Strategy != nil {
		if w := cfg.Strategy.ChainWidth(cfg.Policy.Width()); w != cfg.Policy.Width() {
			pol, err := search.WithWidth(cfg.Policy, w)
			if err != nil {
				return nil, err
			}
			cfg.Policy = pol
		}
	}
	root := rng.New(cfg.Seed).ChildN(p.Dataset, p.Index)
	spec := p.Spec()
	s := &solver{
		cfg:       cfg,
		p:         p,
		clk:       clk,
		gen:       genEng,
		root:      root,
		orderRand: root.Child("order"),
		selRand:   root.Child("select"),
		kvBudget:  budget,
		meanStep:  meanStepTokens(spec),
		nextNode:  promptNode + 1,
		preempt:   preempt,
	}
	s.ver = &verify.Verifier{
		Eng:         verEng,
		Skill:       cfg.VerSkill,
		BatchSize:   1,
		PrefixCache: cfg.Opts.VerifierPrefixCache,
		LookAhead:   cfg.Opts.LookAhead && cfg.Opts.Speculative,
	}
	return s, nil
}

func meanStepTokens(spec workload.DatasetSpec) int {
	// E[lognormal] = exp(mu + sigma^2/2).
	return int(math.Exp(spec.StepLogMu + spec.StepLogSigma*spec.StepLogSigma/2))
}

func (s *solver) run() (*Result, error) {
	s.begin()
	for !s.done() {
		if err := s.stepOnce(); err != nil {
			return nil, err
		}
	}
	return s.result()
}

// begin charges the prompt prefill and seeds the root beams. It is the
// prologue of run, split out so the serving engine can fold it into a
// request's first device slice.
func (s *solver) begin() {
	pol := s.cfg.Policy
	// Root beams share the prompt.
	prompt := nodeRuns(promptNode, s.p.PromptTokens)
	s.gen.PrefillBatch([]engine.PrefillItem{
		{NewTokens: s.p.PromptTokens, CtxTokens: s.p.PromptTokens},
	}, trace.PhaseGenerate)
	if seq, _, _, err := s.gen.Cache.AcquireRuns(prompt); err == nil {
		s.gen.Cache.Release(seq) // stays resident, unreferenced
	}
	for i := 0; i < pol.Width(); i++ {
		id := s.nextBeam
		s.nextBeam++
		s.active = append(s.active, &beam{
			id:      id,
			subtree: pol.InitialSubtree(i),
			tokens:  append([]kvcache.Run(nil), prompt...),
			tokLen:  s.p.PromptTokens,
			lineage: []sched.NodeRef{{Node: promptNode, Tokens: s.p.PromptTokens}},
			r:       s.root.ChildN("beam", id),
			obsR:    s.root.ChildN("obs", id),
			specR:   s.root.ChildN("spec", id),
		})
	}
	s.maxIters = s.p.Spec().MaxSteps + 4
	s.begun = true
}

// stepOnce runs one search iteration (allocate → generate → verify →
// select). Each call is one preemptible device slice for the serving
// engine; the solver's clock advances only inside it.
func (s *solver) stepOnce() error {
	if s.cfg.Opts.AsymmetricMemory || s.iter == 0 {
		if err := s.allocate(); err != nil {
			return err
		}
	}
	ordered, err := s.generationPhase()
	if err != nil {
		return err
	}
	s.verificationPhase(ordered)
	s.selectAndBranch()
	s.iter++
	return nil
}

// done reports whether the search loop has terminated: all paths
// collected, the iteration cap reached, or the strategy satisfied early
// (first-finish stops at the first completed path).
func (s *solver) done() bool {
	if !s.begun {
		return false
	}
	if len(s.active) == 0 || s.iter >= s.maxIters {
		return true
	}
	return s.strategySatisfied()
}

// strategySatisfied reports whether the configured strategy allows
// stopping with beams still active.
func (s *solver) strategySatisfied() bool {
	return s.cfg.Strategy != nil && len(s.finished) > 0 &&
		s.cfg.Strategy.Satisfied(len(s.finished), len(s.active))
}

// cutDeadline finalizes the search early at a deadline cut: the serving
// loop invokes it (at slice granularity) when the request's deadline
// passes mid-solve under the "deadline" strategy. If no path finished
// yet, the best active beam (score descending, ID ascending) is
// collected as a degraded answer — Answer 1, honest accounting that the
// cut traded accuracy for latency. All remaining beams are abandoned.
func (s *solver) cutDeadline() {
	if len(s.active) == 0 {
		return
	}
	if len(s.finished) == 0 {
		best := s.active[0]
		for _, b := range s.active[1:] {
			if b.score > best.score || (b.score == best.score && b.id < best.id) {
				best = b
			}
		}
		s.finished = append(s.finished, FinalPath{
			BeamID:      best.id,
			Steps:       best.state.Steps,
			Tokens:      best.state.Tokens,
			Answer:      1,
			Score:       best.score,
			CompletedAt: s.clk.Now(),
		})
	}
	s.abandoned += len(s.active)
	s.active = s.active[:0]
}

// result assembles the final Result; it errors if the search ran out of
// iterations with beams still active. Beams still active because the
// strategy terminated early are abandoned, not errors.
func (s *solver) result() (*Result, error) {
	if len(s.active) > 0 {
		if !s.strategySatisfied() {
			return nil, fmt.Errorf("core: search did not converge after %d iterations", s.maxIters)
		}
		s.abandoned += len(s.active)
		s.active = s.active[:0]
	}

	res := &Result{
		Problem:          s.p,
		Finished:         s.finished,
		Latency:          s.clk.Now(),
		GenTime:          s.gen.BusyTime - s.gen.TransferTime,
		VerTime:          s.ver.Eng.BusyTime - s.ver.Eng.TransferTime,
		TransferTime:     s.gen.TransferTime + s.ver.Eng.TransferTime,
		Iterations:       s.iter,
		Abandoned:        s.abandoned,
		TokensDecoded:    s.gen.DecodedTokens,
		SpecTokens:       s.specTok,
		SpecRetained:     s.specRetained,
		RecomputedTokens: s.recomputed,
		GenCache:         s.gen.Cache.Stats(),
		VerCache:         s.ver.Eng.Cache.Stats(),
	}
	res.Goodput = metrics.PreciseGoodput(res.PathResults())
	return res, nil
}

// allocate re-partitions the KV budget between verifier and generator
// (§4.3). FastTTS re-invokes it every iteration as system state changes;
// the baseline splits statically once.
func (s *solver) allocate() error {
	n := len(s.active)
	if n == 0 {
		return nil
	}
	avgLen := 0
	for _, b := range s.active {
		avgLen += b.tokLen
	}
	avgLen /= n
	if avgLen < 16 {
		avgLen = 16
	}
	in := alloc.Input{
		GPU:          s.cfg.GPU,
		Generator:    s.cfg.Generator,
		Verifier:     s.cfg.Verifier,
		N:            n,
		SeqVerifier:  avgLen,
		SeqDecode:    max(s.meanStep, 16),
		BudgetBytes:  s.kvBudget,
		AllowOffload: s.cfg.Opts.AllowOffload,
	}
	var plan alloc.Plan
	var err error
	if s.cfg.Opts.AsymmetricMemory {
		plan, err = alloc.Optimize(in)
	} else {
		plan, err = alloc.StaticSplit(in, s.cfg.Opts.StaticVerifierFrac)
	}
	if err != nil {
		if errors.Is(err, alloc.ErrInfeasible) && s.cfg.Opts.AllowOffload {
			// Force offload: each model gets the whole budget.
			plan = alloc.Plan{BPre: 1, BDec: 1, Offload: true}
		} else {
			return fmt.Errorf("core: allocation failed: %w", err)
		}
	}
	s.offload = plan.Offload
	var genBytes, verBytes int64
	if plan.Offload {
		genBytes, verBytes = s.kvBudget, s.kvBudget
	} else if s.cfg.Opts.AsymmetricMemory {
		// Verifier gets its batch reservation; the generator absorbs the
		// remaining budget (decode is the memory-hungry stage, Fig 6) —
		// but not beyond its working set: surplus flows back to the
		// verifier, where it buys cross-iteration prefix retention.
		verBytes = plan.PreBytes
		genBytes = s.kvBudget - verBytes
		genNeed := s.generatorWorkingSetBytes()
		if genBytes > genNeed {
			verBytes = s.kvBudget - genNeed
			genBytes = genNeed
		}
	} else {
		verBytes = int64(float64(s.kvBudget) * s.cfg.Opts.StaticVerifierFrac)
		genBytes = s.kvBudget - verBytes
	}
	if verBytes < s.cfg.Verifier.KVBytesPerToken()*64 {
		verBytes = s.cfg.Verifier.KVBytesPerToken() * 64
		if !plan.Offload {
			genBytes = s.kvBudget - verBytes
		}
	}
	if genBytes < s.cfg.Generator.KVBytesPerToken()*64 {
		return fmt.Errorf("core: generator KV budget too small (%d bytes)", genBytes)
	}
	if err := s.gen.ResizeCache(genBytes); err != nil {
		return err
	}
	if err := s.ver.Eng.ResizeCache(verBytes); err != nil {
		return err
	}
	s.ver.BatchSize = max(plan.BPre, 1)
	return nil
}

// generatorWorkingSetBytes estimates the KV footprint the generator can
// productively use this iteration: the unique tokens of the active
// reasoning tree plus one expected step (and speculation headroom) per
// beam, with slack.
func (s *solver) generatorWorkingSetBytes() int64 {
	seen := map[int]bool{}
	unique := 0
	for _, b := range s.active {
		for _, ref := range b.lineage {
			if !seen[ref.Node] {
				seen[ref.Node] = true
				unique += ref.Tokens
			}
		}
	}
	perBeam := 3 * s.meanStep // current step + speculative headroom
	if !s.cfg.Policy.UsesVerifier() {
		// Best-of-N / CoT chains run to completion in one iteration.
		perBeam = s.p.Spec().MaxSteps * s.meanStep
	}
	tokens := int64(unique + len(s.active)*perBeam)
	return tokens * s.cfg.Generator.KVBytesPerToken() * 3 / 2
}

// generationPhase samples and commits one thinking step per active beam,
// then executes the decode work trie by trie. It returns the scheduling
// order used (reused by verification).
func (s *solver) generationPhase() ([]*beam, error) {
	for _, b := range s.active {
		s.commitStep(b)
	}
	s.assignSpecEligibility()

	ordered := s.orderBeams()
	paths := make([]sched.Path, len(ordered))
	byID := make(map[int]*beam, len(ordered))
	for i, b := range ordered {
		paths[i] = b.schedPath()
		byID[b.id] = b
	}
	capacity := int(s.gen.Cache.CapacityTokens())
	var groups [][]*beam
	if s.cfg.Opts.GeneratorPrefixCache {
		// Tries share prefixes physically: capacity counts unique tokens.
		for _, tr := range sched.PackTries(paths, capacity) {
			group := make([]*beam, len(tr.Paths))
			for i, p := range tr.Paths {
				group[i] = byID[p.ID]
			}
			groups = append(groups, group)
		}
	} else {
		// Without prefix reuse every beam occupies its full length.
		var cur []*beam
		used := 0
		for _, p := range paths {
			n := p.TotalTokens()
			if len(cur) > 0 && used+n > capacity {
				groups = append(groups, cur)
				cur, used = nil, 0
			}
			cur = append(cur, byID[p.ID])
			used += n
		}
		if len(cur) > 0 {
			groups = append(groups, cur)
		}
	}

	if s.offload {
		s.swapForGeneration()
	}
	for _, group := range groups {
		s.execTrie(group)
	}
	return ordered, nil
}

// commitStep samples the beam's next thinking step (or, for policies
// without intermediate verification, the whole remaining chain) and
// commits its tokens. Retained speculative tokens cover the head of the
// step; only the remainder needs decode rounds.
func (s *solver) commitStep(b *beam) {
	pol := s.cfg.Policy
	total := 0
	if pol.UsesVerifier() {
		var step workload.Step
		if len(b.nextSteps) > 0 {
			// Speculation pre-sampled this step (§4.1.3); consuming the
			// stored draw keeps the step stream aligned with a
			// speculation-free run.
			step = b.nextSteps[0]
			b.nextSteps = b.nextSteps[1:]
		} else {
			step = workload.SampleStep(s.p, &b.state, s.cfg.GenSkill, pol.StepBudget(b.state.Steps), b.r)
		}
		workload.ApplyStep(&b.state, step)
		b.stepTerminal = step.Terminal
		total = step.Tokens
	} else {
		// Best-of-N / CoT: the chain runs to termination without
		// verification barriers — one mega-step.
		for !b.state.Terminated {
			step := workload.SampleStep(s.p, &b.state, s.cfg.GenSkill, pol.StepBudget(b.state.Steps), b.r)
			workload.ApplyStep(&b.state, step)
			total += step.Tokens
		}
		b.stepTerminal = true
	}
	b.stepTokens = total
	used := b.takePending(total)
	fresh := total - used
	b.freshAt = len(b.tokens)
	if fresh > 0 {
		node := s.newNode()
		b.tokens = appendNodeRuns(b.tokens, node, fresh)
		b.tokLen += fresh
		b.lineage = append(b.lineage, sched.NodeRef{Node: node, Tokens: fresh})
	}
	b.rem = fresh
}

// assignSpecEligibility computes M_i for every beam by binning the
// previous iteration's verifier scores into B bins (§4.1.1):
// s_i ∈ C_j ⇒ M_i = B − j + 1, with C_1 the highest bin.
func (s *solver) assignSpecEligibility() {
	bins := s.cfg.Opts.SpecBins
	if bins <= 0 {
		bins = s.cfg.Policy.BranchFactor()
	}
	if bins < 1 {
		bins = 1
	}
	lo, hi := 0.0, 0.0
	any := false
	for _, b := range s.active {
		if !b.hasScore {
			continue
		}
		if !any || b.score < lo {
			lo = b.score
		}
		if !any || b.score > hi {
			hi = b.score
		}
		any = true
	}
	for _, b := range s.active {
		switch {
		case !b.hasScore || !any:
			b.specEligible = 1
		case hi == lo:
			b.specEligible = bins
		default:
			// Bin index from the top: j=1 for the highest scores.
			frac := (hi - b.score) / (hi - lo)
			j := int(frac*float64(bins)) + 1
			if j > bins {
				j = bins
			}
			b.specEligible = bins - j + 1
		}
	}
}

// orderBeams applies Dynamic Prefix-Aware Scheduling (or the baseline's
// arbitrary order, which vLLM's preemption and queueing induce).
func (s *solver) orderBeams() []*beam {
	paths := make([]sched.Path, len(s.active))
	for i, b := range s.active {
		paths[i] = b.schedPath()
	}
	var ordered []sched.Path
	if s.cfg.Opts.PrefixAware {
		ordered = sched.PrefixAwareOrder(paths)
	} else {
		ordered = sched.RandomOrder(paths, s.orderRand)
	}
	byID := make(map[int]*beam, len(s.active))
	for _, b := range s.active {
		byID[b.id] = b
	}
	out := make([]*beam, len(ordered))
	for i, p := range ordered {
		out[i] = byID[p.ID]
	}
	return out
}

// execTrie runs one memory-resident group: acquire KV (charging recompute
// prefill for evicted prefixes), then the decode round loop with
// Speculative Beam Extension, then speculative KV writes.
func (s *solver) execTrie(group []*beam) {
	// Acquire committed prefixes; extend with this step's fresh tokens.
	// Without a generator prefix cache (the vLLM baseline), every beam's
	// full path is re-prefilled as a fresh prompt each iteration.
	var recomp []engine.PrefillItem
	for _, b := range group {
		prevLen := b.tokLen - b.rem
		if !s.cfg.Opts.GeneratorPrefixCache {
			recomp = append(recomp, engine.PrefillItem{NewTokens: prevLen, CtxTokens: prevLen})
			s.recomputed += int64(prevLen)
			continue
		}
		seq, _, miss, err := s.gen.Cache.AcquireRuns(b.tokens[:b.freshAt])
		if err != nil {
			// Pinned-full or oversized path: stream uncached.
			miss = prevLen
			seq = nil
		}
		if miss > 0 {
			recomp = append(recomp, engine.PrefillItem{NewTokens: miss, CtxTokens: prevLen})
			s.recomputed += int64(miss)
		}
		if seq != nil && b.rem > 0 {
			if _, _, err := s.gen.Cache.Extend(seq, b.tokens[b.freshAt:]); err != nil {
				s.gen.Cache.Release(seq)
				seq = nil
			}
		}
		b.seq = seq
	}
	if len(recomp) > 0 {
		s.gen.PrefillBatch(recomp, trace.PhaseRecompute)
	}

	s.decodeRounds(group)

	// Materialize speculative branches into the cache so retained spec
	// survives to the next iteration (dropped silently under pressure —
	// speculation is opportunistic).
	for _, b := range group {
		if b.seq == nil {
			continue
		}
		for _, sp := range b.specs {
			if sp.count == 0 {
				continue
			}
			need := int64(b.pendLen + sp.count)
			if s.gen.Cache.FreeTokens() < need {
				// Opportunistic: never evict committed prefixes to keep
				// speculative KV. The token content survives in the beam
				// (recompute-on-adopt handles residency).
				continue
			}
			fork, err := s.gen.Cache.Fork(b.seq)
			if err != nil {
				continue
			}
			s.specExt = appendNodeRuns(append(s.specExt[:0], b.pending...), sp.node, sp.count)
			s.gen.Cache.Extend(fork, s.specExt)
			s.gen.Cache.Release(fork)
		}
	}
	for _, b := range group {
		if b.seq != nil {
			s.gen.Cache.Release(b.seq)
			b.seq = nil
		}
	}
}

// specCandidate orders the speculative fill queue: highest remaining
// eligibility first, then score, then ID (§4.1.1).
type specCandidate struct {
	b        *beam
	priority int
}

type specHeap []specCandidate

func (h specHeap) Len() int { return len(h) }
func (h specHeap) Less(i, j int) bool {
	if h[i].priority != h[j].priority {
		return h[i].priority > h[j].priority
	}
	if h[i].b.score != h[j].b.score {
		return h[i].b.score > h[j].b.score
	}
	return h[i].b.id < h[j].b.id
}
func (h specHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *specHeap) Push(x any)   { *h = append(*h, x.(specCandidate)) }
func (h *specHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// decodeRounds is the generation while-loop of Algorithm 1: one token per
// round for every unfinished beam, with completed beams' slots lazily
// filled by speculative branches until the last straggler finishes. A
// speculative branch generates at most one entire future CoT step (the
// LookAhead case, §4.1.3); its length comes from pre-sampling the beam's
// next step, which preserves per-stream draw order and therefore
// algorithmic equivalence.
func (s *solver) decodeRounds(group []*beam) {
	maxRem := 0
	for _, b := range group {
		if b.rem > maxRem {
			maxRem = b.rem
		}
	}
	buckets := make([][]*beam, maxRem+1)
	active := 0
	var ctx int64
	for _, b := range group {
		if b.rem > 0 {
			active++
			buckets[b.rem] = append(buckets[b.rem], b)
			ctx += int64(b.tokLen - b.rem)
		}
	}
	speculating := s.cfg.Opts.Speculative && s.cfg.Policy.UsesVerifier()
	var cand specHeap
	pushCand := func(b *beam) {
		if !speculating || b.stepTerminal {
			return // terminal paths have no future step to speculate
		}
		if b.specEligible > len(b.specs) {
			heap.Push(&cand, specCandidate{b: b, priority: b.specEligible - len(b.specs)})
		}
	}
	if speculating {
		for _, b := range group {
			if b.rem == 0 {
				pushCand(b)
			}
		}
	}
	slots := len(group)
	type slot struct {
		b   *beam
		idx int // index into b.specs
	}
	var specActive []slot
	// Speculative context budget: spec slots add KV reads to every round,
	// so their total context is capped at a fraction of the weight-read
	// cost, keeping speculation effectively free under the roofline.
	var specCtx int64
	specCtxBudget := s.cfg.Generator.WeightBytes() / s.cfg.Generator.KVBytesPerToken() / 6
	if free := s.gen.Cache.FreeTokens(); specCtxBudget > free {
		// Under memory pressure, speculative KV would thrash committed
		// prefixes; shrink the speculation envelope to what fits.
		specCtxBudget = free
	}
	fill := func() {
		if !speculating || s.isPreempted() {
			return
		}
		for active+len(specActive) < slots && cand.Len() > 0 {
			c := heap.Pop(&cand).(specCandidate)
			b := c.b
			if len(b.nextSteps) == 0 {
				st := workload.SampleStep(s.p, &b.state, s.cfg.GenSkill,
					s.cfg.Policy.StepBudget(b.state.Steps), b.r)
				b.nextSteps = append(b.nextSteps, st)
			}
			capTok := b.nextSteps[0].Tokens - b.pendLen
			if capTok <= 0 {
				continue // next step already fully covered
			}
			base := int64(b.tokLen + b.pendLen)
			if specCtx+base > specCtxBudget {
				continue // spec reads would slow the round measurably
			}
			node := s.newNode()
			b.specs = append(b.specs, specBranch{
				node: node, cap: capTok,
				ctxLen: b.tokLen + b.pendLen,
			})
			specActive = append(specActive, slot{b: b, idx: len(b.specs) - 1})
			ctx += base
			specCtx += base
			pushCand(b) // re-queue with reduced priority if still eligible
		}
	}
	fill()
	for r := 1; active > 0; r++ {
		if s.isPreempted() && len(specActive) > 0 {
			// Preemption: stop all speculative execution immediately
			// (§4.1.2); accumulated tokens are kept.
			for _, sl := range specActive {
				ctx -= int64(sl.b.specs[sl.idx].ctxLen + sl.b.specs[sl.idx].count)
				specCtx -= int64(sl.b.specs[sl.idx].ctxLen + sl.b.specs[sl.idx].count)
			}
			specActive = nil
		}
		batch := active + len(specActive)
		s.gen.DecodeRound(batch, ctx, trace.PhaseGenerate)
		ctx += int64(batch)
		keep := specActive[:0]
		for _, sl := range specActive {
			br := &sl.b.specs[sl.idx]
			br.count++
			s.specTok++
			specCtx++
			if br.count >= br.cap {
				if sl.idx == 0 && s.chainSpec(sl.b, br) {
					// The primary branch rolls into the following future
					// step (deep lookahead) and keeps its slot.
					keep = append(keep, sl)
					continue
				}
				// Branch completed its future step: free the slot.
				ctx -= int64(br.ctxLen + br.count)
				specCtx -= int64(br.ctxLen + br.count)
			} else {
				keep = append(keep, sl)
			}
		}
		specActive = keep
		if r < len(buckets) {
			for _, b := range buckets[r] {
				active--
				ctx -= int64(b.tokLen)
				pushCand(b)
			}
		}
		fill()
	}
}

// maxSpecDepth bounds how many future steps the primary speculative
// branch may chain through.
const maxSpecDepth = 2

// chainSpec extends the primary speculative branch of b into the next
// future step, pre-sampling it. It reports whether the branch continues.
func (s *solver) chainSpec(b *beam, br *specBranch) bool {
	if len(b.nextSteps) >= maxSpecDepth {
		return false
	}
	last := b.nextSteps[len(b.nextSteps)-1]
	if last.Terminal {
		return false // the chain reached the end of the path
	}
	// The pre-sample sees the state as it will be at that commit: steps
	// advanced by the queued steps. Quality deltas are folded lazily at
	// commit; SampleStep's dependence is through Steps and Quality — use
	// the projected values.
	proj := b.state
	for _, st := range b.nextSteps {
		workload.ApplyStep(&proj, st)
	}
	st := workload.SampleStep(s.p, &proj, s.cfg.GenSkill,
		s.cfg.Policy.StepBudget(proj.Steps), b.r)
	b.nextSteps = append(b.nextSteps, st)
	br.cap += st.Tokens
	return true
}

func (s *solver) isPreempted() bool {
	if s.preempt == nil {
		return false
	}
	return s.preempt(s.clk.Now())
}

// verificationPhase scores every beam's committed path (plus retained
// speculative tokens under LookAhead Verification) in scheduling order.
func (s *solver) verificationPhase(ordered []*beam) {
	if len(ordered) == 0 {
		return
	}
	if s.offload {
		s.swapForVerification()
	}
	bins := s.cfg.Opts.SpecBins
	if bins <= 0 {
		bins = s.cfg.Policy.BranchFactor()
	}
	reqs := make([]verify.Request, len(ordered))
	for i, b := range ordered {
		var spec []kvcache.Run
		// Co-verify speculative chains only for top-bin beams — the ones
		// most likely to survive selection (§4.1.1's priority heuristic
		// applied to verification spend).
		if s.ver.LookAhead && !b.stepTerminal && b.specEligible >= bins {
			spec, _ = b.specChain()
		}
		reqs[i] = verify.Request{
			Tokens:     b.tokens,
			SpecTokens: spec,
			Covered:    b.verifiedLen,
			State:      &b.state,
			R:          b.obsR,
		}
	}
	scores := s.ver.ScoreAll(reqs)
	for i, b := range ordered {
		b.score = scores[i]
		b.hasScore = true
		if total := b.tokLen + kvcache.Len(reqs[i].SpecTokens); total > b.verifiedLen {
			b.verifiedLen = total
		}
		if cv := b.verifiedLen - b.tokLen; cv > 0 {
			b.coVerified = cv
		} else {
			b.coVerified = 0
		}
	}
}

// selectAndBranch collects terminated paths, applies the policy's
// selection to the rest, and branches the survivors — originals keep
// their speculative chain intact, duplicates retain a truncated prefix
// (truncation ratio R, §4.1).
func (s *solver) selectAndBranch() {
	now := s.clk.Now()
	var continuing []*beam
	for _, b := range s.active {
		if b.stepTerminal {
			b.answer = workload.Answer(s.p, &b.state, b.obsR)
			s.finished = append(s.finished, FinalPath{
				BeamID:      b.id,
				Steps:       b.state.Steps,
				Tokens:      b.state.Tokens,
				Answer:      b.answer,
				Score:       b.score,
				CompletedAt: now,
			})
			continue
		}
		continuing = append(continuing, b)
	}
	if len(continuing) == 0 {
		s.active = nil
		return
	}
	pol := s.cfg.Policy
	if !pol.UsesVerifier() {
		s.active = continuing
		return
	}
	cands := make([]search.Candidate, len(continuing))
	byID := make(map[int]*beam, len(continuing))
	for i, b := range continuing {
		cands[i] = search.Candidate{ID: b.id, Subtree: b.subtree, Score: b.score}
		byID[b.id] = b
	}
	branches := pol.Select(cands, s.selRand)
	var next []*beam
	for _, br := range branches {
		b := byID[br.ID]
		// Original adopts its full speculative chain as pending tokens.
		chainRuns, chainLin := b.specChain()
		if len(b.specs) > 0 {
			s.specRetained += int64(b.specs[0].count)
		}
		next = append(next, b)
		for c := 1; c < br.Children; c++ {
			id := s.nextBeam
			s.nextBeam++
			child := b.child(id,
				s.root.ChildN("beam", id),
				s.root.ChildN("obs", id),
				s.root.ChildN("spec", id))
			child.verifiedLen = child.tokLen
			if s.cfg.Opts.Speculative {
				s.seedChildPending(b, child, c)
			}
			next = append(next, child)
		}
		b.pending, b.pendLen = chainRuns, kvcache.Len(chainRuns)
		b.pendingLin = chainLin
		b.specs = nil
	}
	s.active = next
}

// seedChildPending gives duplicate c of beam b a truncated speculative
// head start: the tokens of spec branch min(c, last), truncated by a
// Normal(R, 0.1) retention fraction drawn from the child's private
// speculation stream (§4.1: "only its duplicates have speculative tokens
// truncated ... the truncation length is drawn from a normal distribution
// with mean R").
func (s *solver) seedChildPending(b, child *beam, c int) {
	branchIdx := c
	if branchIdx >= len(b.specs) {
		branchIdx = len(b.specs) - 1
	}
	if branchIdx < 0 || b.specs[branchIdx].count == 0 {
		return
	}
	sp := b.specs[branchIdx]
	f := child.specR.NormClamped(s.cfg.Opts.TruncationRatio, 0.1, 0, 1)
	keep := int(f * float64(sp.count))
	if keep <= 0 {
		return
	}
	child.pending, child.pendLen = nodeRuns(sp.node, keep), keep
	child.pendingLin = []sched.NodeRef{{Node: sp.node, Tokens: keep}}
	s.specRetained += int64(keep)
}

func (s *solver) newNode() int {
	n := s.nextNode
	s.nextNode++
	return n
}

// swapForGeneration / swapForVerification charge the §4.3.2 offload
// transfers: the inactive model's KV moves to host memory and the active
// model's KV returns.
func (s *solver) swapForGeneration() {
	moved := s.gen.Cache.UsedBytes() + s.ver.Eng.Cache.UsedBytes()
	s.gen.SwapTransfer(moved)
}

func (s *solver) swapForVerification() {
	moved := s.gen.Cache.UsedBytes() + s.ver.Eng.Cache.UsedBytes()
	s.ver.Eng.SwapTransfer(moved)
}
