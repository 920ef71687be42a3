package core

import (
	"errors"
	"fmt"
	"math"
	"slices"

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
// reusable across problems and — unlike a Loop, which recycles its stacks —
// safe to share between goroutines.
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

// solver runs one request's search. Its fields up to stack are the
// request's state, rebuilt from scratch by init; the embedded stack is the
// storage that outlives the request when a Loop recycles the solver.
type solver struct {
	cfg Config
	p   *workload.Problem

	// Streams are held by value and derived in place; seedRoot exists so
	// root's parent pointer (rng.Stream.Path) stays inside the solver.
	seedRoot  rng.Stream
	root      rng.Stream
	orderRand rng.Stream
	selRand   rng.Stream

	kvBudget int64
	offload  bool
	meanStep int

	nextNode int
	nextBeam int
	// finished is handed to the caller in Result and therefore never
	// recycled: every request grows its own.
	finished  []FinalPath
	iter      int
	abandoned int

	specTok      int64
	specRetained int64
	recomputed   int64

	maxIters int
	begun    bool

	// preempt is probed during decode rounds; while it returns true,
	// speculative execution is suspended (§4.1.2). The multi-tenant server
	// swaps it per device slice.
	preempt func(now float64) bool

	stack
}

// stack is the part of a solver a request does not own: the virtual serving
// stack (clock, the two engines with their KV caches, the verifier), the
// beam pool, and every per-iteration temporary. init returns the serving
// stack to its just-built state (sim.Clock.Reset, engine.Engine.Reset) and
// leaves the rest as is — each temporary is truncated where it is filled,
// so nothing in here carries meaning from one request, or one iteration,
// to the next. See docs/ARCHITECTURE.md, "Solver lifetime and ownership".
type stack struct {
	clk *sim.Clock
	gen *engine.Engine
	ver *verify.Verifier

	active    []*beam // the search frontier; the only beams alive between iterations
	freeBeams []*beam

	sched      sched.Scratch
	nodes      sched.NodeSet        // generatorWorkingSetBytes' distinct-node count
	byID       []*beam              // beam ID → active beam, rebuilt by stepOnce
	paths      []sched.Path         // the frontier as the scheduler sees it
	ordered    []*beam              // the frontier in scheduling order
	groupEnds  []int                // ordered[groupEnds[i-1]:groupEnds[i]] is memory-resident group i
	recomp     []engine.PrefillItem // execTrie's recompute batch
	byRem      []*beam              // decodeRounds: the group's decoding beams by rounds left
	specQueue  specHeap             // decodeRounds: speculative fill queue
	specSlots  []specSlot           // decodeRounds: running speculative branches
	runs       []kvcache.Run        // a path under construction (prompt, speculative extension)
	seq        kvcache.Seq          // handle for acquire-then-release and speculative forks
	reqs       []verify.Request     // verificationPhase's batch
	continuing []*beam              // selectAndBranch: beams that did not terminate
	cands      []search.Candidate   // selectAndBranch: the policy's view of them
	next       []*beam              // selectAndBranch: the frontier being built
}

func newSolver(cfg Config, p *workload.Problem, preempt func(float64) bool) (*solver, error) {
	s := &solver{}
	if err := s.init(cfg, p, preempt); err != nil {
		return nil, err
	}
	return s, nil
}

// init readies s for a request, building the serving stack on first use and
// resetting it in place afterwards. A recycled solver is only re-initialised
// by the Loop that retired it, so the deployment (GPU, models, recorder) is
// the one its engines were built for; only policy and strategy vary.
func (s *solver) init(cfg Config, p *workload.Problem, preempt func(float64) bool) error {
	budget, err := cfg.KVBudget()
	if err != nil {
		return err
	}
	st := s.stack
	if st.clk == nil {
		st.clk = &sim.Clock{}
		if st.gen, err = engine.New("generator", cfg.Generator, cfg.GPU, budget/2, st.clk, cfg.Recorder); err != nil {
			return err
		}
		verEng, err := engine.New("verifier", cfg.Verifier, cfg.GPU, budget/2, st.clk, cfg.Recorder)
		if err != nil {
			return err
		}
		st.ver = &verify.Verifier{Eng: verEng}
	} else {
		st.clk.Reset()
		if err := st.gen.Reset(budget / 2); err != nil {
			return err
		}
		if err := st.ver.Eng.Reset(budget / 2); err != nil {
			return err
		}
	}
	st.ver.Skill = cfg.VerSkill
	st.ver.BatchSize = 1
	st.ver.PrefixCache = cfg.Opts.VerifierPrefixCache
	st.ver.LookAhead = cfg.Opts.LookAhead && cfg.Opts.Speculative
	st.ver.Scored = 0
	// Beams the previous request left on the frontier (abandoned by a
	// strategy, a deadline cut, a cancel or a fail-stop) rejoin the pool.
	st.freeBeams = append(st.freeBeams, st.active...)
	st.active = st.active[:0]

	// The strategy's launch cap (first-finish's k chains) narrows the
	// policy exactly like the elastic governor's width knob, so algorithm
	// invariants (n >= b) hold by construction.
	if cfg.Strategy != nil {
		if w := cfg.Strategy.ChainWidth(cfg.Policy.Width()); w != cfg.Policy.Width() {
			pol, err := search.WithWidth(cfg.Policy, w)
			if err != nil {
				return err
			}
			cfg.Policy = pol
		}
	}
	*s = solver{
		cfg:      cfg,
		p:        p,
		seedRoot: rng.Make(cfg.Seed),
		kvBudget: budget,
		meanStep: meanStepTokens(p.Spec()),
		nextNode: promptNode + 1,
		preempt:  preempt,
		stack:    st,
	}
	s.root = s.seedRoot.DeriveN(p.Dataset, p.Index)
	s.orderRand = s.root.Derive("order")
	s.selRand = s.root.Derive("select")
	return nil
}

// newBeam returns a blank beam, recycled if one is free, with whatever
// capacity its slices grew to in earlier lives.
func (s *solver) newBeam() *beam {
	k := len(s.freeBeams) - 1
	if k < 0 {
		return &beam{}
	}
	b := s.freeBeams[k]
	s.freeBeams = s.freeBeams[:k]
	*b = beam{
		tokens: b.tokens[:0], lineage: b.lineage[:0],
		pending: b.pending[:0], pendingLin: b.pendingLin[:0],
		specs: b.specs[:0], nextSteps: b.nextSteps[:0], chain: b.chain[:0],
	}
	return b
}

// freeBeam returns a beam that left the frontier to the pool.
func (s *solver) freeBeam(b *beam) { s.freeBeams = append(s.freeBeams, b) }

// deriveStreams seeds the beam's three private streams from its ID.
func (s *solver) deriveStreams(b *beam) {
	b.r = s.root.DeriveN("beam", b.id)
	b.obsR = s.root.DeriveN("obs", b.id)
	b.specR = s.root.DeriveN("spec", b.id)
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
	s.runs = appendNodeRuns(s.runs[:0], promptNode, s.p.PromptTokens)
	prompt := s.runs
	s.recomp = append(s.recomp[:0], engine.PrefillItem{NewTokens: s.p.PromptTokens, CtxTokens: s.p.PromptTokens})
	s.gen.PrefillBatch(s.recomp, trace.PhaseGenerate)
	if _, _, err := s.gen.Cache.AcquireInto(&s.seq, prompt); err == nil {
		s.gen.Cache.Release(&s.seq) // stays resident, unreferenced
	}
	for i := 0; i < pol.Width(); i++ {
		b := s.newBeam()
		b.id = s.nextBeam
		s.nextBeam++
		b.subtree = pol.InitialSubtree(i)
		b.tokens = append(b.tokens, prompt...)
		b.tokLen = s.p.PromptTokens
		b.lineage = append(b.lineage, sched.NodeRef{Node: promptNode, Tokens: s.p.PromptTokens})
		s.deriveStreams(b)
		s.active = append(s.active, b)
	}
	s.finished = make([]FinalPath, 0, pol.Width())
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
	// The one ID → beam lookup of the iteration: scheduling and selection
	// both hand back IDs of beams on this frontier.
	if len(s.byID) < s.nextBeam {
		s.byID = append(s.byID, make([]*beam, s.nextBeam-len(s.byID))...)
	}
	for _, b := range s.active {
		s.byID[b.id] = b
	}
	s.generationPhase()
	s.verificationPhase()
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
	s.abandon()
}

// abandon discards the remaining frontier.
func (s *solver) abandon() {
	s.abandoned += len(s.active)
	s.freeBeams = append(s.freeBeams, s.active...)
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
		s.abandon()
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
	s.nodes.Clear()
	unique := 0
	for _, b := range s.active {
		for _, ref := range b.lineage {
			if s.nodes.Add(ref.Node) {
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
// then executes the decode work trie by trie. It leaves the scheduling
// order used in s.ordered (reused by verification).
func (s *solver) generationPhase() {
	for _, b := range s.active {
		s.commitStep(b)
	}
	s.assignSpecEligibility()

	ordered, paths := s.orderBeams()
	capacity := int(s.gen.Cache.CapacityTokens())
	// Memory-resident groups are consecutive runs of the schedule, so each
	// is recorded by where it ends.
	s.groupEnds = s.groupEnds[:0]
	if s.cfg.Opts.GeneratorPrefixCache {
		// Tries share prefixes physically: capacity counts unique tokens.
		end := 0
		for _, tr := range s.sched.PackTries(paths, capacity) {
			end += len(tr.Paths)
			s.groupEnds = append(s.groupEnds, end)
		}
	} else {
		// Without prefix reuse every beam occupies its full length.
		start, used := 0, 0
		for i, p := range paths {
			n := p.TotalTokens()
			if i > start && used+n > capacity {
				s.groupEnds = append(s.groupEnds, i)
				start, used = i, 0
			}
			used += n
		}
		if len(paths) > start {
			s.groupEnds = append(s.groupEnds, len(paths))
		}
	}

	if s.offload {
		s.swapForGeneration()
	}
	start := 0
	for _, end := range s.groupEnds {
		s.execTrie(ordered[start:end])
		start = end
	}
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
			b.nextSteps = slices.Delete(b.nextSteps, 0, 1)
		} else {
			step = workload.SampleStep(s.p, &b.state, s.cfg.GenSkill, pol.StepBudget(b.state.Steps), &b.r)
		}
		workload.ApplyStep(&b.state, step)
		b.stepTerminal = step.Terminal
		total = step.Tokens
	} else {
		// Best-of-N / CoT: the chain runs to termination without
		// verification barriers — one mega-step.
		for !b.state.Terminated {
			step := workload.SampleStep(s.p, &b.state, s.cfg.GenSkill, pol.StepBudget(b.state.Steps), &b.r)
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
// arbitrary order, which vLLM's preemption and queueing induce) and returns
// the frontier in that order, as beams (s.ordered) and as scheduler paths.
func (s *solver) orderBeams() ([]*beam, []sched.Path) {
	s.paths = s.paths[:0]
	for _, b := range s.active {
		s.paths = append(s.paths, b.schedPath())
	}
	var paths []sched.Path
	if s.cfg.Opts.PrefixAware {
		paths = s.sched.PrefixAwareOrder(s.paths)
	} else {
		paths = sched.RandomOrder(s.paths, &s.orderRand)
	}
	s.ordered = s.ordered[:0]
	for _, p := range paths {
		s.ordered = append(s.ordered, s.byID[p.ID])
	}
	return s.ordered, paths
}

// execTrie runs one memory-resident group: acquire KV (charging recompute
// prefill for evicted prefixes), then the decode round loop with
// Speculative Beam Extension, then speculative KV writes.
func (s *solver) execTrie(group []*beam) {
	// Acquire committed prefixes; extend with this step's fresh tokens.
	// Without a generator prefix cache (the vLLM baseline), every beam's
	// full path is re-prefilled as a fresh prompt each iteration.
	recomp := s.recomp[:0]
	for _, b := range group {
		prevLen := b.tokLen - b.rem
		if !s.cfg.Opts.GeneratorPrefixCache {
			recomp = append(recomp, engine.PrefillItem{NewTokens: prevLen, CtxTokens: prevLen})
			s.recomputed += int64(prevLen)
			continue
		}
		_, miss, err := s.gen.Cache.AcquireInto(&b.seq, b.tokens[:b.freshAt])
		b.resident = err == nil
		if err != nil {
			// Pinned-full or oversized path: stream uncached.
			miss = prevLen
		}
		if miss > 0 {
			recomp = append(recomp, engine.PrefillItem{NewTokens: miss, CtxTokens: prevLen})
			s.recomputed += int64(miss)
		}
		if b.resident && b.rem > 0 {
			if _, _, err := s.gen.Cache.Extend(&b.seq, b.tokens[b.freshAt:]); err != nil {
				s.gen.Cache.Release(&b.seq)
				b.resident = false
			}
		}
	}
	s.recomp = recomp
	if len(recomp) > 0 {
		s.gen.PrefillBatch(recomp, trace.PhaseRecompute)
	}

	s.decodeRounds(group)

	// Materialize speculative branches into the cache so retained spec
	// survives to the next iteration (dropped silently under pressure —
	// speculation is opportunistic).
	for _, b := range group {
		if !b.resident {
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
			if err := s.gen.Cache.ForkInto(&s.seq, &b.seq); err != nil {
				continue
			}
			s.runs = appendNodeRuns(append(s.runs[:0], b.pending...), sp.node, sp.count)
			s.gen.Cache.Extend(&s.seq, s.runs)
			s.gen.Cache.Release(&s.seq)
		}
	}
	for _, b := range group {
		if b.resident {
			s.gen.Cache.Release(&b.seq)
			b.resident = false
		}
	}
}

// specCandidate orders the speculative fill queue: highest remaining
// eligibility first, then score, then ID (§4.1.1).
type specCandidate struct {
	b        *beam
	priority int
}

// before is the queue order. A beam is queued at most once at a time and
// IDs are unique, so the order is total and pops come out the same however
// the heap happens to be laid out.
func (c specCandidate) before(d specCandidate) bool {
	if c.priority != d.priority {
		return c.priority > d.priority
	}
	if c.b.score != d.b.score {
		return c.b.score > d.b.score
	}
	return c.b.id < d.b.id
}

// specHeap is a binary min-heap under before, typed so candidates are not
// boxed into interfaces the way container/heap would.
type specHeap []specCandidate

func (h *specHeap) push(c specCandidate) {
	q := append(*h, c)
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q[i].before(q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	*h = q
}

func (h *specHeap) pop() specCandidate {
	q := *h
	top, last := q[0], len(q)-1
	q[0] = q[last]
	q[last] = specCandidate{}
	q = q[:last]
	for i := 0; ; {
		least := i
		for c := 2*i + 1; c <= 2*i+2 && c < last; c++ {
			if q[c].before(q[least]) {
				least = c
			}
		}
		if least == i {
			break
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
	*h = q
	return top
}

// specSlot is one speculative branch occupying a decode slot.
type specSlot struct {
	b   *beam
	idx int // index into b.specs
}

// decodeRounds is the generation while-loop of Algorithm 1: one token per
// round for every unfinished beam, with completed beams' slots lazily
// filled by speculative branches until the last straggler finishes. A
// speculative branch generates at most one entire future CoT step (the
// LookAhead case, §4.1.3); its length comes from pre-sampling the beam's
// next step, which preserves per-stream draw order and therefore
// algorithmic equivalence.
func (s *solver) decodeRounds(group []*beam) {
	// The decoding beams, ordered by the round they finish in; beams
	// finishing together keep group order (the sort is stable).
	byRem := s.byRem[:0]
	var ctx int64
	for _, b := range group {
		if b.rem > 0 {
			byRem = append(byRem, b)
			ctx += int64(b.tokLen - b.rem)
		}
	}
	s.byRem = byRem
	slices.SortStableFunc(byRem, func(a, b *beam) int { return a.rem - b.rem })
	active := len(byRem)
	speculating := s.cfg.Opts.Speculative && s.cfg.Policy.UsesVerifier()
	cand := s.specQueue[:0]
	pushCand := func(b *beam) {
		if !speculating || b.stepTerminal {
			return // terminal paths have no future step to speculate
		}
		if b.specEligible > len(b.specs) {
			cand.push(specCandidate{b: b, priority: b.specEligible - len(b.specs)})
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
	specActive := s.specSlots[:0]
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
		for active+len(specActive) < slots && len(cand) > 0 {
			b := cand.pop().b
			if len(b.nextSteps) == 0 {
				st := workload.SampleStep(s.p, &b.state, s.cfg.GenSkill,
					s.cfg.Policy.StepBudget(b.state.Steps), &b.r)
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
			specActive = append(specActive, specSlot{b: b, idx: len(b.specs) - 1})
			ctx += base
			specCtx += base
			pushCand(b) // re-queue with reduced priority if still eligible
		}
	}
	fill()
	done := 0 // byRem[:done] have finished decoding
	for r := 1; active > 0; r++ {
		if s.isPreempted() && len(specActive) > 0 {
			// Preemption: stop all speculative execution immediately
			// (§4.1.2); accumulated tokens are kept.
			for _, sl := range specActive {
				ctx -= int64(sl.b.specs[sl.idx].ctxLen + sl.b.specs[sl.idx].count)
				specCtx -= int64(sl.b.specs[sl.idx].ctxLen + sl.b.specs[sl.idx].count)
			}
			specActive = specActive[:0]
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
		for ; done < len(byRem) && byRem[done].rem == r; done++ {
			b := byRem[done]
			active--
			ctx -= int64(b.tokLen)
			pushCand(b)
		}
		fill()
	}
	// Hand the (possibly regrown) buffers back, emptied of beam pointers.
	clear(cand)
	s.specQueue, s.specSlots = cand[:0], specActive[:0]
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
		s.cfg.Policy.StepBudget(proj.Steps), &b.r)
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
func (s *solver) verificationPhase() {
	ordered := s.ordered
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
	reqs := s.reqs[:0]
	for _, b := range ordered {
		var spec []kvcache.Run
		// Co-verify speculative chains only for top-bin beams — the ones
		// most likely to survive selection (§4.1.1's priority heuristic
		// applied to verification spend).
		if s.ver.LookAhead && !b.stepTerminal && b.specEligible >= bins {
			spec = b.specChain()
		}
		reqs = append(reqs, verify.Request{
			Tokens:     b.tokens,
			SpecTokens: spec,
			Covered:    b.verifiedLen,
			State:      &b.state,
			R:          &b.obsR,
		})
	}
	s.reqs = reqs
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
	continuing := s.continuing[:0]
	for _, b := range s.active {
		if b.stepTerminal {
			b.answer = workload.Answer(s.p, &b.state, &b.obsR)
			s.finished = append(s.finished, FinalPath{
				BeamID:      b.id,
				Steps:       b.state.Steps,
				Tokens:      b.state.Tokens,
				Answer:      b.answer,
				Score:       b.score,
				CompletedAt: now,
			})
			s.freeBeam(b)
			continue
		}
		continuing = append(continuing, b)
	}
	pol := s.cfg.Policy
	if len(continuing) == 0 || !pol.UsesVerifier() {
		s.active, s.continuing = continuing, s.active[:0]
		return
	}
	s.continuing = continuing
	cands := s.cands[:0]
	for _, b := range continuing {
		cands = append(cands, search.Candidate{ID: b.id, Subtree: b.subtree, Score: b.score})
	}
	s.cands = cands
	branches := pol.Select(cands, &s.selRand)
	// Pruned beams go back to the pool before the survivors branch, so the
	// duplicates below are built from them.
	for _, br := range branches {
		s.byID[br.ID].selected = true
	}
	for _, b := range continuing {
		if !b.selected {
			s.freeBeam(b)
		}
		b.selected = false
	}
	next := s.next[:0]
	for _, br := range branches {
		b := s.byID[br.ID]
		if len(b.specs) > 0 {
			s.specRetained += int64(b.specs[0].count)
		}
		next = append(next, b)
		for c := 1; c < br.Children; c++ {
			child := s.branch(b)
			if s.cfg.Opts.Speculative {
				s.seedChildPending(b, child, c)
			}
			next = append(next, child)
		}
		// Original adopts its full speculative chain as pending tokens.
		b.adoptSpecChain()
	}
	s.active, s.next = next, s.active[:0]
}

// branch clones b into a new successor sharing the committed sequence: its
// own ID and streams, b's path, state and score, nothing pending, and
// everything committed counted as verified.
func (s *solver) branch(b *beam) *beam {
	child := s.newBeam()
	child.id = s.nextBeam
	s.nextBeam++
	child.subtree = b.subtree
	child.state = b.state
	child.tokens = append(child.tokens, b.tokens...)
	child.tokLen = b.tokLen
	child.lineage = append(child.lineage, b.lineage...)
	child.score, child.hasScore = b.score, b.hasScore
	child.verifiedLen = child.tokLen
	s.deriveStreams(child)
	return child
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
	child.pending, child.pendLen = appendNodeRuns(child.pending, sp.node, keep), keep
	child.pendingLin = append(child.pendingLin, sched.NodeRef{Node: sp.node, Tokens: keep})
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
