package engine

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"fasttts/internal/alloc"

	"fasttts/internal/hw"
	"fasttts/internal/kvcache"
	"fasttts/internal/model"
	"fasttts/internal/obs"
	"fasttts/internal/sim"
	"fasttts/internal/trace"
)

func newTestEngine(t *testing.T, m model.Config, kv int64) (*Engine, *sim.Clock) {
	t.Helper()
	clk := &sim.Clock{}
	e, err := New("test", m, hw.RTX4090, kv, clk, nil)
	if err != nil {
		t.Fatal(err)
	}
	return e, clk
}

func TestNewRejectsOversizedWeights(t *testing.T) {
	clk := &sim.Clock{}
	huge := model.Config{Name: "huge", Params: 100_000_000_000, Layers: 1, Hidden: 1, Heads: 1, KVHeads: 1, HeadDim: 1}
	if _, err := New("x", huge, hw.RTX4090, 1<<30, clk, nil); err == nil {
		t.Error("expected weights-too-large error")
	}
	if _, err := New("x", model.Qwen25Math1_5B, hw.RTX4090, 0, clk, nil); err == nil {
		t.Error("expected non-positive KV error")
	}
}

func TestDecodeRoundAdvancesClock(t *testing.T) {
	e, clk := newTestEngine(t, model.Qwen25Math1_5B, 4<<30)
	dt := e.DecodeRound(8, 8*512, trace.PhaseGenerate)
	if dt <= 0 {
		t.Fatalf("dt = %v", dt)
	}
	if clk.Now() != dt {
		t.Errorf("clock %v != dt %v", clk.Now(), dt)
	}
	if e.DecodedTokens != 8 {
		t.Errorf("decoded = %d", e.DecodedTokens)
	}
	if e.BusyTime != dt {
		t.Errorf("busy = %v", e.BusyTime)
	}
}

func TestDecodeRoundWeightBoundAtSmallBatch(t *testing.T) {
	// The straggler phenomenon (§3.2.1): shrinking the batch from 64 to 1
	// barely reduces round latency because weights dominate reads.
	e, _ := newTestEngine(t, model.Qwen25Math1_5B, 8<<30)
	t64 := e.DecodeRound(64, 64*256, trace.PhaseGenerate)
	t1 := e.DecodeRound(1, 256, trace.PhaseGenerate)
	if t1 < 0.5*t64 {
		t.Errorf("single-beam round %.2e much faster than 64-beam %.2e: straggler effect lost", t1, t64)
	}
}

// TestDecodeRoundMatchesFormula holds the precomputed decode roofline to
// the formula written out term by term — hw.GPU.Roofline over one step's
// FLOPs, batch·(2·Params + 4·Layers·Heads·HeadDim·⌊ctx/batch⌋), and bytes,
// weights + ctx·KVBytesPerToken + batch·Hidden·2·Layers — bit for bit, on
// every shipped GPU × model × weight format that fits, every batch 1–512
// and a context grid that includes totals batch does not divide.
// alloc.DecodeTime, the formula's other user, must agree too.
func TestDecodeRoundMatchesFormula(t *testing.T) {
	perSeq := []int64{0, 1, 7, 100, 513, 2048, 4095, 9000, 32768}
	for _, g := range []hw.GPU{hw.RTX4090, hw.RTX4070Ti, hw.RTX3070Ti} {
		for _, base := range []model.Config{model.Qwen25Math1_5B, model.Qwen25Math7B, model.ShepherdPRM7B, model.SkyworkPRM1_5B} {
			fit := false
			for _, q := range []model.Quantization{model.FP16, model.INT8, model.INT4} {
				m := base.WithQuant(q)
				e, err := New("oracle", m, g, 1<<30, &sim.Clock{}, nil)
				if err != nil {
					continue // weights exceed VRAM
				}
				fit = true
				dec := model.NewDecodeRoofline(m, g)
				for b := 1; b <= 512; b++ {
					for _, c := range perSeq {
						whole := int64(b) * c
						for _, ctx := range []int64{whole, whole + 1, whole + int64(b) - 1} {
							avg := int(ctx / int64(b))
							flops := float64(b) * (2*float64(m.Params) + 4*float64(m.Layers)*float64(m.Heads*m.HeadDim)*float64(avg))
							bytes := float64(m.WeightBytes()) + float64(ctx)*float64(m.KVBytesPerToken()) + float64(b)*float64(m.Hidden)*2*float64(m.Layers)
							want := g.Roofline(flops, bytes)
							if got := e.DecodeRound(b, ctx, trace.PhaseGenerate); math.Float64bits(got) != math.Float64bits(want) {
								t.Fatalf("%s on %s, batch %d, ctx %d: DecodeRound %v, formula %v", m.Name, g.Name, b, ctx, got, want)
							}
							if ctx == whole {
								if got := alloc.DecodeTime(&dec, b, int(c)); math.Float64bits(got) != math.Float64bits(want) {
									t.Fatalf("%s on %s, batch %d, cache %d: alloc.DecodeTime %v, formula %v", m.Name, g.Name, b, c, got, want)
								}
							}
						}
					}
				}
			}
			if !fit {
				t.Errorf("no weight format of %s fits %s", base.Name, g.Name)
			}
		}
	}
}

// TestDecodeRunMatchesRounds holds a DecodeRun to the DecodeRound-by-round
// loop it replaces, bit for bit: rounds run, final context, top of the last
// round reached, clock, BusyTime, DecodedTokens and, with a recorder
// attached, every sample. It covers every GPU × model × weight format of
// TestDecodeRoundMatchesFormula, random batches 1–512, contexts and runs of
// 0–300 rounds from a random clock, and a monotone threshold stop that
// never fires, fires at entry, mid-stretch, or first at the top of the
// last round — where the run reads it, so it must start over to find that
// top and no earlier one.
func TestDecodeRunMatchesRounds(t *testing.T) {
	r := rand.New(rand.NewPCG(40, 2))
	forEachDeployment(t, []hw.GPU{hw.RTX4090, hw.RTX4070Ti, hw.RTX3070Ti}, func(m model.Config, g hw.GPU) {
		for range 12 {
			batch := 1 + r.IntN(512)
			ctx := int64(batch) * r.Int64N(4096)
			if r.IntN(2) == 0 {
				ctx += r.Int64N(int64(batch)) // a total batch does not divide
			}
			checkRunMatchesRounds(t, m, g, batch, ctx, r.IntN(301), r.Float64()*100, r.Float64()*50)
		}
	})
}

// TestDecodeRunAcrossCrossover: stretches that cross between compute- and
// memory-bound part way (each round's mean context grows by one token), or
// that end within a few rounds of the crossover on either side, charge
// what the rounds charge one at a time. These are the stretches whose
// one-division path must not be taken, or taken only where it is exact.
// On every catalog deployment the memory term grows faster, so stretches
// turn memory-bound; on starved, a GPU with a twentieth of an RTX 4090's
// compute, the compute term grows faster, and stretches of the small
// batches that start memory-bound there turn compute-bound.
func TestDecodeRunAcrossCrossover(t *testing.T) {
	r := rand.New(rand.NewPCG(55, 3))
	starved := hw.RTX4090
	starved.Name, starved.PeakFLOPS = "compute-starved", hw.RTX4090.PeakFLOPS/20
	crossings := map[bool]int{} // by whether the stretch turns memory-bound
	forEachDeployment(t, []hw.GPU{hw.RTX4090, hw.RTX4070Ti, hw.RTX3070Ti, starved}, func(m model.Config, g hw.GPU) {
		d := model.NewDecodeRoofline(m, g)
		memBound := func(batch int, mean int64) bool {
			ctx := int64(batch) * mean
			dt, _ := d.Step(batch, ctx)
			return sameBits(dt, d.StepMem(batch, ctx))
		}
		for range 12 {
			batch := 1 + r.IntN(1<<r.IntN(11)) // log-uniform over 1–1024
			const hi = 1 << 21
			turns := memBound(batch, hi)
			if memBound(batch, 0) == turns {
				continue // no crossover on this batch's stretches
			}
			lo, top := int64(0), int64(hi) // top is the first mean past the crossover
			for top-lo > 1 {
				if mid := (lo + top) / 2; memBound(batch, mid) == turns {
					top = mid
				} else {
					lo = mid
				}
			}
			crossings[turns]++
			for range 6 {
				first := max(top-r.Int64N(200), 0)
				rounds := r.IntN(400)
				if r.IntN(3) == 0 {
					// End within a round or two of the crossover.
					rounds = max(int(top-first)+r.IntN(5)-2, 0)
				}
				ctx := int64(batch)*first + r.Int64N(int64(batch))
				checkRunMatchesRounds(t, m, g, batch, ctx, rounds, r.Float64()*100, r.Float64()*50)
			}
		}
	})
	t.Logf("batches crossing into memory-bound %d, into compute-bound %d", crossings[true], crossings[false])
	if crossings[true] < 50 || crossings[false] < 10 {
		t.Errorf("batches crossing into memory-bound %d, into compute-bound %d: the test covers too little",
			crossings[true], crossings[false])
	}
}

// forEachDeployment calls f on every GPU of gpus × model × quantization
// whose weights fit.
func forEachDeployment(t *testing.T, gpus []hw.GPU, f func(model.Config, hw.GPU)) {
	t.Helper()
	for _, g := range gpus {
		for _, base := range []model.Config{model.Qwen25Math1_5B, model.Qwen25Math7B, model.ShepherdPRM7B, model.SkyworkPRM1_5B} {
			for _, q := range []model.Quantization{model.FP16, model.INT8, model.INT4} {
				m := base.WithQuant(q)
				if _, err := New("fit", m, g, 1<<30, &sim.Clock{}, nil); err != nil {
					continue // weights exceed VRAM
				}
				f(m, g)
			}
		}
	}
}

// checkRunMatchesRounds fails unless DecodeRun of the stretch — unstopped,
// and stopped at its first, middle and last top, recorded and not — leaves
// the engine, its spans and its results bit for bit as DecodeRound called
// round by round does.
func checkRunMatchesRounds(t *testing.T, m model.Config, g hw.GPU, batch int, ctx int64, rounds int, clock0, busy0 float64) {
	t.Helper()
	// The tops of a run nothing stops place the thresholds.
	var tops []float64
	{
		e, _ := newRunEngine(t, m, g, clock0, busy0, false)
		c := ctx
		for range rounds {
			tops = append(tops, e.Clock.Now())
			e.DecodeRound(batch, c, trace.PhaseGenerate)
			c += int64(batch)
		}
	}
	thresholds := []float64{math.Inf(1), clock0}
	if rounds > 0 {
		thresholds = append(thresholds, tops[rounds/2], tops[rounds-1])
	}
	for _, th := range thresholds {
		stop := func(top float64) bool { return top >= th }
		for _, recorded := range []bool{false, true} {
			want, wantRec := newRunEngine(t, m, g, clock0, busy0, recorded)
			wantRan, wantCtx, wantTop := 0, ctx, want.Clock.Now()
			for wantRan < rounds {
				wantTop = want.Clock.Now()
				if stop(wantTop) {
					break
				}
				want.DecodeRound(batch, wantCtx, trace.PhaseGenerate)
				wantCtx += int64(batch)
				wantRan++
			}
			got, gotRec := newRunEngine(t, m, g, clock0, busy0, recorded)
			ran, gotCtx, top := got.DecodeRun(batch, ctx, rounds, trace.PhaseGenerate, stop)
			if ran != wantRan || gotCtx != wantCtx || !sameBits(top, wantTop) ||
				!sameBits(got.Clock.Now(), want.Clock.Now()) || !sameBits(got.BusyTime, want.BusyTime) ||
				got.DecodedTokens != want.DecodedTokens {
				t.Fatalf("%s on %s, batch %d, ctx %d, %d rounds, threshold %v, recorded %v: run (%d rounds, ctx %d, top %v, clock %v, busy %v, %d tokens), round by round (%d, %d, %v, %v, %v, %d)",
					m.Name, g.Name, batch, ctx, rounds, th, recorded,
					ran, gotCtx, top, got.Clock.Now(), got.BusyTime, got.DecodedTokens,
					wantRan, wantCtx, wantTop, want.Clock.Now(), want.BusyTime, want.DecodedTokens)
			}
			if recorded && !slices.Equal(gotRec.Spans(), wantRec.Spans()) {
				t.Fatalf("%s on %s, batch %d, ctx %d, %d rounds, threshold %v: kernel spans differ", m.Name, g.Name, batch, ctx, rounds, th)
			}
		}
	}
}

// newRunEngine returns an engine for m on g whose clock reads clock0 and
// whose BusyTime is busy0, with its kernel spans on the returned recorder
// if recorded (else the recorder is nil).
func newRunEngine(t *testing.T, m model.Config, g hw.GPU, clock0, busy0 float64, recorded bool) (*Engine, *obs.Recorder) {
	t.Helper()
	var rec *obs.Recorder
	if recorded {
		rec = obs.NewRecorder()
	}
	clk := &sim.Clock{}
	clk.Advance(clock0)
	e, err := New("run", m, g, 1<<30, clk, rec.Device(0))
	if err != nil {
		t.Fatal(err)
	}
	e.BusyTime = busy0
	return e, rec
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// BenchmarkDecodeRun times a 60-round stretch of a 16-sequence batch, the
// kind the solver's decode loop charges between two events, per round.
func BenchmarkDecodeRun(b *testing.B) {
	e, err := New("bench", model.Qwen25Math1_5B, hw.RTX4090, 1<<30, &sim.Clock{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	const rounds = 60
	for b.Loop() {
		e.DecodeRun(16, 16*900, rounds, trace.PhaseGenerate, nil)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rounds), "ns/round")
}

func TestDecodeZeroBatch(t *testing.T) {
	e, clk := newTestEngine(t, model.Qwen25Math1_5B, 1<<30)
	if dt := e.DecodeRound(0, 0, trace.PhaseGenerate); dt != 0 {
		t.Errorf("dt = %v", dt)
	}
	if clk.Now() != 0 {
		t.Error("clock moved for empty batch")
	}
}

func TestPrefillBatch(t *testing.T) {
	e, clk := newTestEngine(t, model.ShepherdPRM7B, 4<<30)
	items := []PrefillItem{{NewTokens: 512, CtxTokens: 512}, {NewTokens: 256, CtxTokens: 800}}
	dt := e.PrefillBatch(items, trace.PhaseVerify)
	if dt <= 0 || clk.Now() != dt {
		t.Fatalf("dt = %v, clock = %v", dt, clk.Now())
	}
	if e.PrefilledTokens != 768 {
		t.Errorf("prefilled = %d", e.PrefilledTokens)
	}
}

func TestPrefillBatchingAmortizesWeights(t *testing.T) {
	// Prefilling 8 sequences in one batch must be cheaper than 8
	// separate batches (weights stream once vs 8 times).
	e1, _ := newTestEngine(t, model.Qwen25Math1_5B, 8<<30)
	items := make([]PrefillItem, 8)
	for i := range items {
		items[i] = PrefillItem{NewTokens: 64, CtxTokens: 64}
	}
	batched := e1.PrefillBatch(items, trace.PhaseVerify)
	e2, _ := newTestEngine(t, model.Qwen25Math1_5B, 8<<30)
	var separate float64
	for _, it := range items {
		separate += e2.PrefillBatch([]PrefillItem{it}, trace.PhaseVerify)
	}
	if batched >= separate {
		t.Errorf("batched %.3e not cheaper than separate %.3e", batched, separate)
	}
}

func TestPrefillEmpty(t *testing.T) {
	e, clk := newTestEngine(t, model.Qwen25Math1_5B, 1<<30)
	if dt := e.PrefillBatch(nil, trace.PhaseVerify); dt != 0 {
		t.Errorf("dt = %v", dt)
	}
	if dt := e.PrefillBatch([]PrefillItem{{NewTokens: 0}}, trace.PhaseVerify); dt != 0 {
		t.Errorf("zero-token prefill dt = %v", dt)
	}
	if clk.Now() != 0 {
		t.Error("clock moved")
	}
}

func TestSwapTransfer(t *testing.T) {
	e, clk := newTestEngine(t, model.Qwen25Math1_5B, 1<<30)
	dt := e.SwapTransfer(1 << 30)
	if dt <= 0 || clk.Now() != dt {
		t.Fatalf("dt = %v", dt)
	}
	if e.TransferTime != dt {
		t.Errorf("transfer time = %v", e.TransferTime)
	}
	if e.SwapTransfer(0) != 0 {
		t.Error("zero-byte swap should be free")
	}
}

func TestRecorderIntegration(t *testing.T) {
	clk := &sim.Clock{}
	rec := obs.NewRecorder()
	e, err := New("gen", model.Qwen25Math1_5B, hw.RTX4090, 2<<30, clk, rec.Device(0))
	if err != nil {
		t.Fatal(err)
	}
	e.DecodeRound(4, 4*100, trace.PhaseGenerate)
	e.PrefillBatch([]PrefillItem{{NewTokens: 100, CtxTokens: 100}}, trace.PhaseVerify)
	spans := rec.Spans()
	if len(spans) != 2 {
		t.Fatalf("spans = %d", len(spans))
	}
	if spans[0].Kind != trace.PhaseGenerate || spans[1].Kind != trace.PhaseVerify {
		t.Errorf("phases = %v, %v", spans[0].Kind, spans[1].Kind)
	}
	// Verification prefill is compute-dense: its utilization should beat
	// a small decode batch (Fig 4's contrast).
	if spans[1].V1 <= spans[0].V1 {
		t.Errorf("prefill util %.3f not above decode util %.3f", spans[1].V1, spans[0].V1)
	}
}

func TestResizeCache(t *testing.T) {
	e, _ := newTestEngine(t, model.Qwen25Math1_5B, 2<<30)
	if err := e.ResizeCache(1 << 30); err != nil {
		t.Fatal(err)
	}
	if got := e.Cache.CapacityTokens(); got != (1<<30)/e.Model.KVBytesPerToken() {
		t.Errorf("capacity = %d", got)
	}
}

// The span blocks are skipped for a nil kernel track; skipping them must not
// change what the engine charges, and a track must still see one span per
// charged operation with the fields the unguarded code computed.
func TestRecorderGuardChangesNothing(t *testing.T) {
	m, g := model.Qwen25Math1_5B, hw.RTX4090
	for _, tc := range []struct {
		name  string
		op    func(e *Engine) float64
		phase trace.Phase
		batch int
		flops float64 // utilization numerator; 0 for transfers
		spans int
	}{
		{"decode", func(e *Engine) float64 { return e.DecodeRound(8, 8*512, trace.PhaseGenerate) },
			trace.PhaseGenerate, 8, 8 * (2*float64(m.Params) + 4*float64(m.Layers)*float64(m.Heads*m.HeadDim)*512), 1},
		{"decode zero batch", func(e *Engine) float64 { return e.DecodeRound(0, 0, trace.PhaseGenerate) },
			trace.PhaseGenerate, 0, 0, 0},
		{"prefill", func(e *Engine) float64 {
			return e.PrefillBatch([]PrefillItem{{NewTokens: 300, CtxTokens: 900}, {NewTokens: 0, CtxTokens: 5}}, trace.PhaseVerify)
		}, trace.PhaseVerify, 2, m.PrefillFLOPs(300, 900), 1},
		{"prefill nothing new", func(e *Engine) float64 { return e.PrefillBatch([]PrefillItem{{CtxTokens: 5}}, trace.PhaseVerify) },
			trace.PhaseVerify, 0, 0, 0},
		{"swap", func(e *Engine) float64 { return e.SwapTransfer(64 << 20) }, trace.PhaseTransfer, 0, 0, 1},
		{"swap nothing", func(e *Engine) float64 { return e.SwapTransfer(0) }, trace.PhaseTransfer, 0, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := obs.NewRecorder()
			var engines [2]*Engine
			var dts [2]float64
			for i, tr := range []*obs.Track{nil, rec.Device(0)} {
				e, err := New("gen", m, g, 2<<30, &sim.Clock{}, tr)
				if err != nil {
					t.Fatal(err)
				}
				e.Clock.Advance(1.5) // spans must start at the clock, not at 0
				engines[i], dts[i] = e, tc.op(e)
			}
			off, on := engines[0], engines[1]
			if dts[0] != dts[1] || off.Clock.Now() != on.Clock.Now() || off.BusyTime != on.BusyTime ||
				off.TransferTime != on.TransferTime || off.DecodedTokens != on.DecodedTokens ||
				off.PrefilledTokens != on.PrefilledTokens {
				t.Errorf("nil track: dt=%v clock=%v %+v\ntrack:     dt=%v clock=%v %+v",
					dts[0], off.Clock.Now(), counters(off), dts[1], on.Clock.Now(), counters(on))
			}
			spans := rec.Spans()
			if len(spans) != tc.spans {
				t.Fatalf("%d spans, want %d", len(spans), tc.spans)
			}
			if tc.spans == 0 {
				return
			}
			want := obs.Span{
				Start: 1.5, End: 1.5 + dts[1], Kind: tc.phase, N: tc.batch,
			}
			if tc.flops > 0 {
				want.V1 = g.Utilization(tc.flops, dts[1])
			}
			if spans[0] != want {
				t.Errorf("span = %+v\nwant   %+v", spans[0], want)
			}
		})
	}
}

func counters(e *Engine) [4]float64 {
	return [4]float64{e.BusyTime, e.TransferTime, float64(e.DecodedTokens), float64(e.PrefilledTokens)}
}

func TestResetMatchesNew(t *testing.T) {
	e, clk := newTestEngine(t, model.Qwen25Math1_5B, 2<<30)
	e.Cache.AcquireRuns([]kvcache.Run{{First: 0, N: 700}})
	e.DecodeRound(8, 8*512, trace.PhaseGenerate)
	e.PrefillBatch([]PrefillItem{{NewTokens: 300, CtxTokens: 900}}, trace.PhaseVerify)
	e.SwapTransfer(1 << 20)
	if err := e.Reset(1 << 30); err != nil {
		t.Fatal(err)
	}
	fresh, err := New("test", model.Qwen25Math1_5B, hw.RTX4090, 1<<30, clk, nil)
	if err != nil {
		t.Fatal(err)
	}
	if counters(e) != counters(fresh) || e.Cache.UsedTokens() != 0 || e.Cache.Stats() != fresh.Cache.Stats() ||
		e.Cache.CapacityTokens() != fresh.Cache.CapacityTokens() {
		t.Errorf("reset engine %+v used=%d stats=%+v cap=%d differs from a new one",
			counters(e), e.Cache.UsedTokens(), e.Cache.Stats(), e.Cache.CapacityTokens())
	}
	if err := e.Reset(0); err == nil {
		t.Error("Reset accepted a non-positive KV budget")
	}
}
