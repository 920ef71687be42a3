package engine

import (
	"testing"

	"fasttts/internal/hw"
	"fasttts/internal/kvcache"
	"fasttts/internal/model"
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
	rec := &trace.Recorder{}
	e, err := New("gen", model.Qwen25Math1_5B, hw.RTX4090, 2<<30, clk, rec)
	if err != nil {
		t.Fatal(err)
	}
	e.DecodeRound(4, 4*100, trace.PhaseGenerate)
	e.PrefillBatch([]PrefillItem{{NewTokens: 100, CtxTokens: 100}}, trace.PhaseVerify)
	if len(rec.Samples) != 2 {
		t.Fatalf("samples = %d", len(rec.Samples))
	}
	if rec.Samples[0].Phase != trace.PhaseGenerate || rec.Samples[1].Phase != trace.PhaseVerify {
		t.Errorf("phases = %v, %v", rec.Samples[0].Phase, rec.Samples[1].Phase)
	}
	// Verification prefill is compute-dense: its utilization should beat
	// a small decode batch (Fig 4's contrast).
	if rec.Samples[1].Util <= rec.Samples[0].Util {
		t.Errorf("prefill util %.3f not above decode util %.3f",
			rec.Samples[1].Util, rec.Samples[0].Util)
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

// The sample blocks are skipped for a nil recorder; skipping them must not
// change what the engine charges, and a non-nil recorder must still see one
// sample per charged operation with the fields the unguarded code computed.
func TestRecorderGuardChangesNothing(t *testing.T) {
	m, g := model.Qwen25Math1_5B, hw.RTX4090
	for _, tc := range []struct {
		name    string
		op      func(e *Engine) float64
		phase   trace.Phase
		batch   int
		flops   float64 // utilization numerator; 0 for transfers
		samples int
	}{
		{"decode", func(e *Engine) float64 { return e.DecodeRound(8, 8*512, trace.PhaseGenerate) },
			trace.PhaseGenerate, 8, 8 * m.DecodeFLOPsPerToken(512), 1},
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
			rec := &trace.Recorder{}
			var engines [2]*Engine
			var dts [2]float64
			for i, r := range []*trace.Recorder{nil, rec} {
				e, err := New("gen", m, g, 2<<30, &sim.Clock{}, r)
				if err != nil {
					t.Fatal(err)
				}
				if _, _, _, err := e.Cache.AcquireRuns([]kvcache.Run{{First: 0, N: 700}}); err != nil {
					t.Fatal(err)
				}
				e.Clock.Advance(1.5) // samples must start at the clock, not at 0
				engines[i], dts[i] = e, tc.op(e)
			}
			off, on := engines[0], engines[1]
			if dts[0] != dts[1] || off.Clock.Now() != on.Clock.Now() || off.BusyTime != on.BusyTime ||
				off.TransferTime != on.TransferTime || off.DecodedTokens != on.DecodedTokens ||
				off.PrefilledTokens != on.PrefilledTokens {
				t.Errorf("nil recorder: dt=%v clock=%v %+v\nrecorder:     dt=%v clock=%v %+v",
					dts[0], off.Clock.Now(), counters(off), dts[1], on.Clock.Now(), counters(on))
			}
			if len(rec.Samples) != tc.samples {
				t.Fatalf("%d samples, want %d", len(rec.Samples), tc.samples)
			}
			if tc.samples == 0 {
				return
			}
			want := trace.Sample{
				Start: 1.5, End: 1.5 + dts[1], Phase: tc.phase, Batch: tc.batch,
				KVBytes: 700 * m.KVBytesPerToken(),
			}
			if tc.flops > 0 {
				want.Util = g.Utilization(tc.flops, dts[1])
			}
			if rec.Samples[0] != want {
				t.Errorf("sample = %+v\nwant     %+v", rec.Samples[0], want)
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
