package core

import (
	"flag"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"fasttts/internal/obs"
	"fasttts/internal/rng"
	"fasttts/internal/search"
	"fasttts/internal/trace"
	"fasttts/internal/workload"
)

var quickSeed = flag.Int("quick.seed", int(time.Now().UnixNano()%100000), "seed for the decode-loop oracle test")

// refStats is what refDecodeRounds saw of the paths it took.
type refStats struct {
	stretchTops []float64 // the top of every stretch's last round run
	emptyChains int       // primary branches chained into an empty future step
	preempted   bool      // preemption stopped speculation mid-loop
}

// refDecodeRounds is decodeRounds as it was before its running slots went
// on a queue: every event walks every running slot to bring its count up
// to date, to find the next event and to free the capped ones. It is the
// oracle TestDecodeRoundsMatchesReference runs the queue against, on
// buffers of its own, and records in st what it did.
func refDecodeRounds(s *solver, group []*beam, st *refStats) {
	type slot struct {
		b   *beam
		idx int
	}
	var byRem []*beam
	var ctx int64
	for _, b := range group {
		if b.rem > 0 {
			byRem = append(byRem, b)
			ctx += int64(b.tokLen - b.rem)
		}
	}
	slices.SortStableFunc(byRem, func(a, b *beam) int { return a.rem - b.rem })
	active := len(byRem)
	speculating := s.cfg.Opts.Speculative && s.pol.UsesVerifier()
	var cand specHeap
	pushCand := func(b *beam) {
		if !speculating || b.stepTerminal {
			return
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
	var specActive []slot
	var specCtx int64
	specCtxBudget := s.cfg.Generator.WeightBytes() / s.cfg.Generator.KVBytesPerToken() / 6
	if free := s.gen.Cache.FreeTokens(); specCtxBudget > free {
		specCtxBudget = free
	}
	fill := func() {
		if !speculating || s.preempt.fires(s.clk.Now()) {
			return
		}
		for active+len(specActive) < slots && len(cand) > 0 {
			b := cand.pop().b
			if len(b.nextSteps) == 0 {
				st := workload.SampleStep(s.p, &b.state, s.cfg.GenSkill,
					s.pol.StepBudget(b.state.Steps), &b.r)
				b.nextSteps = append(b.nextSteps, st)
			}
			capTok := b.nextSteps[0].Tokens - b.pendLen
			if capTok <= 0 {
				continue
			}
			base := int64(b.tokLen + b.pendLen)
			if specCtx+base > specCtxBudget {
				continue
			}
			node := s.newNode()
			b.specs = append(b.specs, specBranch{node: node, cap: capTok, ctxLen: b.tokLen + b.pendLen})
			specActive = append(specActive, slot{b: b, idx: len(b.specs) - 1})
			ctx += base
			specCtx += base
			pushCand(b)
		}
	}
	catchUp := func(k int) {
		for _, sl := range specActive {
			sl.b.specs[sl.idx].count += k
		}
		s.specTok += int64(k * len(specActive))
		specCtx += int64(k * len(specActive))
	}
	probe := s.preempt.fires
	fill()
	done, r, top := 0, 0, 0.0
	for active > 0 {
		from := r
		next := byRem[done].rem
		for _, sl := range specActive {
			br := &sl.b.specs[sl.idx]
			next = min(next, r+max(br.cap-br.count, 1))
		}
		batch := active + len(specActive)
		for r < next {
			var stop func(float64) bool
			if len(specActive) > 0 {
				stop = probe
			}
			var ran int
			ran, ctx, top = s.gen.DecodeRun(batch, ctx, next-r, trace.PhaseGenerate, stop)
			if r += ran; r < next {
				st.preempted = st.preempted || len(specActive) > 0
				catchUp(r - from)
				for _, sl := range specActive {
					br := &sl.b.specs[sl.idx]
					ctx -= int64(br.ctxLen + br.count)
					specCtx -= int64(br.ctxLen + br.count)
				}
				specActive = specActive[:0]
				batch, next = active, byRem[done].rem
			} else if ran > 0 {
				st.stretchTops = append(st.stretchTops, top)
			}
		}
		if len(specActive) > 0 {
			catchUp(r - from)
			keep := specActive[:0]
			for _, sl := range specActive {
				br := &sl.b.specs[sl.idx]
				if br.count < br.cap {
					keep = append(keep, sl)
					continue
				}
				if sl.idx == 0 && s.chainSpec(sl.b, br) {
					if br.count == br.cap {
						st.emptyChains++
					}
					keep = append(keep, sl)
					continue
				}
				ctx -= int64(br.ctxLen + br.count)
				specCtx -= int64(br.ctxLen + br.count)
			}
			specActive = keep
		}
		for ; done < len(byRem) && byRem[done].rem == r; done++ {
			b := byRem[done]
			active--
			ctx -= int64(b.tokLen)
			pushCand(b)
		}
		fill()
	}
	if speculating {
		s.preempt.hit = s.preempt.hit || s.preempt.fires(s.clk.Now())
	} else if r > 0 {
		s.preempt.hit = s.preempt.hit || s.preempt.fires(top)
	}
}

// decodeCase is one random decode group: everything oracleGroup builds
// from, so two builds of one case are the same solver state.
type decodeCase struct {
	seed     uint64
	recorded bool
	preempt  preemptProbe
}

var (
	oracleAIME   = workload.NewDataset(workload.AIME24, rng.New(7))
	oracleStubby = workload.NewDataset(stubbyDataset, rng.New(7))
)

// oracleGroup builds the solver of case c after begin, and a decode group
// on its frontier with every field decodeRounds reads drawn at random:
// rounds left from a few values (so beams tie), context lengths, pending
// speculative tokens, terminal steps, several speculative branches per
// beam, tied scores, pre-sampled next steps (some already covered by what
// is pending), a zero-token-step dataset two times in three (so primary
// branches chain into empty future steps), and one time in three a
// generator cache so full that FreeTokens squeezes the speculative context
// budget. It reports whether the budget was squeezed.
func oracleGroup(t *testing.T, c decodeCase) (s *solver, group []*beam, rec *obs.Recorder, squeezed bool) {
	t.Helper()
	r := rng.New(c.seed)
	p := oracleStubby.Problems[r.IntN(len(oracleStubby.Problems))]
	if r.IntN(3) == 0 {
		p = oracleAIME.Problems[r.IntN(len(oracleAIME.Problems))]
	}
	pol, err := search.New(search.BeamSearch, []int{4, 8, 16, 32}[r.IntN(4)], []int{2, 4}[r.IntN(2)])
	if err != nil {
		t.Fatal(err)
	}
	opts := FastTTSOptions()
	opts.Speculative = r.IntN(8) > 0
	cfg := testConfig(t, pol, opts)
	if c.recorded {
		rec = obs.NewRecorder()
	}
	if s, err = newTestSolver(cfg, p, rec.Device(0)); err != nil {
		t.Fatal(err)
	}
	s.begin()
	group = s.active[:1+r.IntN(len(s.active))]
	for _, b := range group {
		b.tokLen += r.IntN(400)
		b.rem = []int{0, 0, 1, 2, 3, 3, 5, 8, 20, 60, 150}[r.IntN(11)]
		if r.IntN(2) == 0 {
			b.pendLen = r.IntN(40)
		}
		b.stepTerminal = r.IntN(6) == 0
		b.specEligible = r.IntN(5)
		b.score = []float64{0.2, 0.5, 0.5, 0.9}[r.IntN(4)]
		b.state.Steps = r.IntN(6)
		if r.IntN(3) == 0 {
			b.nextSteps = append(b.nextSteps, workload.Step{Tokens: r.IntN(80)})
		}
	}
	if r.IntN(3) == 0 {
		c := s.gen.Cache
		free := int64(r.IntN(3000))
		if err := c.Resize((c.UsedTokens() + free) * cfg.Generator.KVBytesPerToken()); err != nil {
			t.Fatal(err)
		}
		squeezed = c.FreeTokens() < cfg.Generator.WeightBytes()/cfg.Generator.KVBytesPerToken()/6
	}
	s.preempt = c.preempt
	return s, group, rec, squeezed
}

// TestDecodeRoundsMatchesReference drives decodeRounds and its scanning
// reference in lockstep over random decode groups (oracleGroup), each
// unpreempted, preempted from the start, by another request waiting, at a
// random instant, and at the top of a round in the middle of a stretch and
// of a stretch's last round, recorded or not. Every beam's speculative
// branches, pre-sampled steps and step stream, the speculative token count,
// the clock, busy time, decoded tokens, node IDs, the probe-hit flag and
// any kernel spans must agree bit for bit. Reproduce a failure with
// -quick.seed.
func TestDecodeRoundsMatchesReference(t *testing.T) {
	t.Logf("quick.seed=%d", *quickSeed)
	r := rng.New(uint64(*quickSeed)).Child("decode")
	var cover struct{ preempted, emptyChains, squeezed, midTop, lastTop int }
	for trial := 0; trial < 80; trial++ {
		seed := uint64(r.IntN(1 << 30))
		// An unpreempted run of the case, recorded, places the boundaries:
		// the top of a round inside a stretch and of a stretch's last round.
		var plain refStats
		s, group, rec, squeezed := oracleGroup(t, decodeCase{seed: seed, recorded: true, preempt: noPreemption})
		refDecodeRounds(s, group, &plain)
		if squeezed {
			cover.squeezed++
		}
		cover.emptyChains += plain.emptyChains
		var mids []float64
		for _, sp := range rec.Spans() {
			if sp.Kind == trace.PhaseGenerate && !slices.Contains(plain.stretchTops, sp.Start) {
				mids = append(mids, sp.Start)
			}
		}
		probes := []struct {
			name string
			p    preemptProbe
		}{
			{"none", noPreemption},
			{"from the start", preemptProbe{pending: 0, scale: 1}},
			{"others waiting", preemptProbe{othersWaiting: true, pending: -1, scale: 1}},
			{"random instant", preemptProbe{pending: s.clk.Now() * r.Float64(), scale: 1}},
		}
		if len(mids) > 0 {
			probes = append(probes, struct {
				name string
				p    preemptProbe
			}{"mid-stretch top", preemptProbe{pending: mids[r.IntN(len(mids))], scale: 1}})
		}
		if n := len(plain.stretchTops); n > 0 {
			probes = append(probes, struct {
				name string
				p    preemptProbe
			}{"stretch's last top", preemptProbe{pending: plain.stretchTops[r.IntN(n)], scale: 1}})
		}
		for _, pr := range probes {
			c := decodeCase{seed: seed, recorded: r.IntN(3) == 0, preempt: pr.p}
			label := fmt.Sprintf("trial %d (seed %d), probe %s at %v, recorded %v", trial, seed, pr.name, pr.p.pending, c.recorded)
			got, gotGroup, gotRec, _ := oracleGroup(t, c)
			want, wantGroup, wantRec, _ := oracleGroup(t, c)
			got.decodeRounds(gotGroup)
			var st refStats
			refDecodeRounds(want, wantGroup, &st)
			cover.emptyChains += st.emptyChains
			if st.preempted {
				cover.preempted++
				switch pr.name {
				case "mid-stretch top":
					cover.midTop++
				case "stretch's last top":
					cover.lastTop++
				}
			}
			compareDecode(t, label, got, want, gotGroup, wantGroup)
			if c.recorded && !slices.Equal(gotRec.Spans(), wantRec.Spans()) {
				t.Fatalf("%s: kernel spans differ", label)
			}
		}
	}
	t.Logf("coverage: %+v", cover)
	if cover.preempted == 0 || cover.emptyChains == 0 || cover.squeezed == 0 || cover.midTop == 0 || cover.lastTop == 0 {
		t.Errorf("the random groups missed a path: %+v", cover)
	}
}

// compareDecode fails unless the two solvers and their groups left
// decodeRounds in the same state, floats compared bit for bit.
func compareDecode(t *testing.T, label string, got, want *solver, gotGroup, wantGroup []*beam) {
	t.Helper()
	bits := math.Float64bits
	if got.specTok != want.specTok || bits(got.clk.Now()) != bits(want.clk.Now()) ||
		bits(got.gen.BusyTime) != bits(want.gen.BusyTime) || got.gen.DecodedTokens != want.gen.DecodedTokens ||
		got.nextNode != want.nextNode || got.preempt.hit != want.preempt.hit {
		t.Fatalf("%s: specTok %d clock %v busy %v decoded %d next node %d hit %v; reference %d %v %v %d %d %v", label,
			got.specTok, got.clk.Now(), got.gen.BusyTime, got.gen.DecodedTokens, got.nextNode, got.preempt.hit,
			want.specTok, want.clk.Now(), want.gen.BusyTime, want.gen.DecodedTokens, want.nextNode, want.preempt.hit)
	}
	for i, g := range gotGroup {
		w := wantGroup[i]
		if !slices.Equal(g.specs, w.specs) || !slices.Equal(g.nextSteps, w.nextSteps) || bits(g.r.Float64()) != bits(w.r.Float64()) {
			t.Fatalf("%s: beam %d specs %+v next steps %+v; reference %+v %+v", label, g.id, g.specs, g.nextSteps, w.specs, w.nextSteps)
		}
	}
}
