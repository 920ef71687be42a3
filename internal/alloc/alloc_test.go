package alloc

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"fasttts/internal/hw"
	"fasttts/internal/model"
	"fasttts/internal/rng"
)

func baseInput() Input {
	return Input{
		GPU:         hw.RTX4090,
		Generator:   model.Qwen25Math1_5B,
		Verifier:    model.SkyworkPRM1_5B,
		N:           64,
		SeqVerifier: 1024,
		SeqDecode:   1024,
		BudgetBytes: 4 << 30,
	}
}

func TestOptimizeSatisfiesBudget(t *testing.T) {
	in := baseInput()
	p, err := Optimize(in)
	if err != nil {
		t.Fatal(err)
	}
	if decBytes := int64(p.BDec) * in.Generator.KVBytes(1, in.SeqDecode); p.PreBytes+decBytes > in.BudgetBytes {
		t.Errorf("plan exceeds budget: %d + %d > %d", p.PreBytes, decBytes, in.BudgetBytes)
	}
	if p.BPre < 1 || p.BDec < 1 {
		t.Errorf("degenerate batches: %+v", p)
	}
}

func TestOptimizeMatchesBruteForce(t *testing.T) {
	in := baseInput()
	in.N = 24
	in.BudgetBytes = 1 << 30
	p, err := Optimize(in)
	if err != nil {
		t.Fatal(err)
	}
	// Brute force over the full (B_pre, B_dec) grid, not just Eq. 1
	// boundary points: the boundary point must still win (stage latency
	// is non-increasing in batch memory, so the optimum is on the
	// boundary — the paper's key insight).
	kvPre := in.Verifier.KVBytes(1, in.SeqVerifier)
	kvDec := in.Generator.KVBytes(1, in.SeqDecode)
	dec := model.NewDecodeRoofline(in.Generator, in.GPU)
	best := -1.0
	for bp := 1; bp <= in.N; bp++ {
		for bd := 1; bd <= in.N; bd++ {
			if int64(bp)*kvPre+int64(bd)*kvDec > in.BudgetBytes {
				continue
			}
			tt := cycleTime(in, &dec, bp, bd)
			if best < 0 || tt < best {
				best = tt
			}
		}
	}
	if best < 0 {
		t.Fatal("brute force found nothing feasible")
	}
	if p.TotalTime > best*(1+1e-9) {
		t.Errorf("linear search total %.6f worse than brute force %.6f", p.TotalTime, best)
	}
}

func TestMoreMemoryNeverHurts(t *testing.T) {
	in := baseInput()
	prev := -1.0
	for _, gbytes := range []int64{1 << 29, 1 << 30, 2 << 30, 4 << 30, 8 << 30} {
		in.BudgetBytes = gbytes
		p, err := Optimize(in)
		if err != nil {
			t.Fatalf("budget %d: %v", gbytes, err)
		}
		if prev >= 0 && p.TotalTime > prev*(1+1e-9) {
			t.Errorf("budget %d: time %.4f worse than smaller budget %.4f", gbytes, p.TotalTime, prev)
		}
		prev = p.TotalTime
	}
}

func TestInfeasibleBudget(t *testing.T) {
	in := baseInput()
	in.BudgetBytes = 1 << 10 // 1 KiB: nothing fits
	if _, err := Optimize(in); err == nil {
		t.Error("expected ErrInfeasible")
	}
	if _, err := StaticSplit(in, 0.5); err == nil {
		t.Error("expected StaticSplit to fail too")
	}
}

func TestInvalidN(t *testing.T) {
	in := baseInput()
	in.N = 0
	if _, err := Optimize(in); err == nil {
		t.Error("expected error for N=0")
	}
}

func TestOptimizeBeatsStaticSplit(t *testing.T) {
	// The whole point of §4.3: the asymmetric split should never lose to
	// a fixed 50/50 split, and should win clearly in the verifier-heavy
	// config where 50/50 starves the generator.
	in := baseInput()
	in.Verifier = model.ShepherdPRM7B // 128 KiB/token KV
	in.BudgetBytes = 3 << 30
	opt, err := Optimize(in)
	if err != nil {
		t.Fatal(err)
	}
	static, err := StaticSplit(in, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// StaticSplit models no cycle time; price its batches the way Optimize
	// prices a candidate.
	dec := model.NewDecodeRoofline(in.Generator, in.GPU)
	staticTime := cycleTime(in, &dec, static.BPre, static.BDec)
	if opt.TotalTime > staticTime*(1+1e-9) {
		t.Errorf("optimized %.4f slower than static %.4f", opt.TotalTime, staticTime)
	}
	if opt.TotalTime > 0.9*staticTime {
		t.Logf("note: optimized %.4f vs static %.4f (modest gain)", opt.TotalTime, staticTime)
	}
}

func TestDecodeGetsMoreMemoryThanPrefill(t *testing.T) {
	// Fig 6: prefill saturates with far less memory than decode, so the
	// optimizer should hand most of the budget to the generator. Use a
	// budget that cannot satisfy both stages at full batch, so the two
	// stages actually compete.
	in := baseInput()
	in.BudgetBytes = 1536 << 20
	p, err := Optimize(in)
	if err != nil {
		t.Fatal(err)
	}
	if decBytes := int64(p.BDec) * in.Generator.KVBytes(1, in.SeqDecode); decBytes <= p.PreBytes {
		t.Errorf("decode bytes %d <= prefill bytes %d; expected asymmetry toward decode",
			decBytes, p.PreBytes)
	}
}

func TestOffloadChosenOnlyWhenBetter(t *testing.T) {
	// Tight budget on a small GPU: offloading should win because neither
	// stage can batch meaningfully when sharing.
	in := Input{
		GPU:          hw.RTX3070Ti,
		Generator:    model.Qwen25Math1_5B,
		Verifier:     model.ShepherdPRM7B,
		N:            64,
		SeqVerifier:  1024,
		SeqDecode:    1024,
		BudgetBytes:  512 << 20,
		AllowOffload: true,
	}
	with, err := Optimize(in)
	if err != nil {
		t.Fatal(err)
	}
	in.AllowOffload = false
	without, err := Optimize(in)
	if err != nil {
		t.Fatal(err)
	}
	if with.TotalTime > without.TotalTime*(1+1e-9) {
		t.Errorf("offload-enabled plan %.4f worse than partition-only %.4f",
			with.TotalTime, without.TotalTime)
	}
	dec := model.NewDecodeRoofline(in.Generator, in.GPU)
	if overhead := with.TotalTime - cycleTime(in, &dec, with.BPre, with.BDec); with.Offload && overhead <= 0 {
		t.Errorf("offload plan must carry a positive transfer overhead, got %g", overhead)
	}
	// Abundant memory: offload must NOT be chosen (partition is free).
	in.AllowOffload = true
	in.BudgetBytes = 16 << 30
	rich, err := Optimize(in)
	if err != nil {
		t.Fatal(err)
	}
	if rich.Offload {
		t.Error("offload chosen despite abundant memory")
	}
}

func TestPrefillSaturatesEarlierThanDecode(t *testing.T) {
	// Fig 6's claim: prefill reaches 80% of peak throughput with much
	// less KV memory than decode needs.
	g := hw.RTX4090
	m := model.Qwen25Math1_5B
	seqPre, seqDec := 640, 1024
	peakPre := PrefillThroughput(g, m, seqPre, 32<<30)
	peakDec := DecodeThroughput(g, m, seqDec, 32<<30)
	at80 := func(f func(int64) float64, peak float64) int64 {
		for kv := int64(8 << 20); kv <= 32<<30; kv *= 2 {
			if f(kv) >= 0.8*peak {
				return kv
			}
		}
		return 32 << 30
	}
	kvPre := at80(func(kv int64) float64 { return PrefillThroughput(g, m, seqPre, kv) }, peakPre)
	kvDec := at80(func(kv int64) float64 { return DecodeThroughput(g, m, seqDec, kv) }, peakDec)
	if kvPre*2 > kvDec {
		t.Errorf("prefill saturation %d not clearly earlier than decode %d", kvPre, kvDec)
	}
}

func TestThroughputMonotoneInMemory(t *testing.T) {
	g := hw.RTX4090
	m := model.Qwen25Math1_5B
	f := func(shift uint8) bool {
		kv := int64(1) << (20 + shift%12)
		return DecodeThroughput(g, m, 1024, 2*kv) >= DecodeThroughput(g, m, 1024, kv)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOptimizeFast(t *testing.T) {
	// §4.3.1 claims the search averages <1ms; allow generous slack but
	// catch accidental quadratic blowups.
	in := baseInput()
	in.N = 512
	in.BudgetBytes = 20 << 30
	done := make(chan struct{})
	go func() {
		for i := 0; i < 50; i++ {
			Optimize(in)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("50 Optimize calls took longer than 5s")
	}
}

func TestTieBreakPrefersLargerDecodeBatch(t *testing.T) {
	// With N=1 every candidate has the same T_tot contribution from
	// batching (single batch each); the tie-break must pick the largest
	// feasible B_dec=1 plan with minimal prefill reservation... simply
	// assert BDec is the max the remaining budget allows.
	in := baseInput()
	in.N = 1
	p, err := Optimize(in)
	if err != nil {
		t.Fatal(err)
	}
	if p.BPre != 1 || p.BDec != 1 {
		t.Errorf("N=1 plan = %+v, want 1/1", p)
	}
}

// refOptimize is Optimize as it was before the decode term was memoized
// per B_dec: every candidate evaluates the whole T_tot afresh. It is the
// oracle TestOptimizeMatchesReference holds Optimize to.
func refOptimize(in Input) (Plan, error) {
	if in.N <= 0 {
		return Plan{}, ErrInfeasible
	}
	kvPre := in.Verifier.KVBytes(1, in.SeqVerifier)
	kvDec := in.Generator.KVBytes(1, in.SeqDecode)
	dec := model.NewDecodeRoofline(in.Generator, in.GPU)
	cycle := func(bPre, bDec int) float64 {
		avgCache := in.SeqDecode / 2
		tPre := float64(ceilDiv(in.N, bPre)) * PrefillTime(in.GPU, in.Verifier, bPre, in.SeqVerifier)
		tDec := float64(ceilDiv(in.N, bDec)) * float64(in.SeqDecode) * DecodeTime(&dec, bDec, avgCache)
		return tPre + tDec
	}
	best := Plan{TotalTime: -1}
	maxPre := min(int(in.BudgetBytes/kvPre), in.N)
	for bPre := 1; bPre <= maxPre; bPre++ {
		bDec := min(int((in.BudgetBytes-int64(bPre)*kvPre)/kvDec), in.N)
		if bDec < 1 {
			continue
		}
		t := cycle(bPre, bDec)
		if best.TotalTime < 0 || t < best.TotalTime || (t == best.TotalTime && bDec > best.BDec) {
			best = Plan{BPre: bPre, BDec: bDec, PreBytes: int64(bPre) * kvPre, TotalTime: t}
		}
	}
	if in.AllowOffload {
		bPre := min(int(in.BudgetBytes/kvPre), in.N)
		bDec := min(int(in.BudgetBytes/kvDec), in.N)
		if bPre >= 1 && bDec >= 1 {
			moved := float64(int64(bPre)*kvPre + int64(bDec)*kvDec)
			t := cycle(bPre, bDec) + in.GPU.TransferTime(moved)
			if best.TotalTime < 0 || t < best.TotalTime {
				best = Plan{BPre: bPre, BDec: bDec, PreBytes: int64(bPre) * kvPre, TotalTime: t, Offload: true}
			}
		}
	}
	if best.TotalTime < 0 {
		return Plan{}, ErrInfeasible
	}
	return best, nil
}

// TestOptimizeMatchesReference: over random inputs — every GPU and model
// pairing, widths 1–256, budgets from below one sequence per stage to far
// above N of them, with and without offload — Optimize returns the plan
// the un-memoized reference returns, TotalTime bit for bit.
func TestOptimizeMatchesReference(t *testing.T) {
	r := rng.New(55)
	gpus := []hw.GPU{hw.RTX4090, hw.RTX4070Ti, hw.RTX3070Ti}
	models := []model.Config{model.Qwen25Math1_5B, model.Qwen25Math7B, model.ShepherdPRM7B, model.SkyworkPRM1_5B}
	var plans, offloads int
	for i := 0; i < 3000; i++ {
		in := Input{
			GPU:          gpus[r.IntN(len(gpus))],
			Generator:    models[r.IntN(len(models))],
			Verifier:     models[r.IntN(len(models))],
			N:            1 + r.IntN(256),
			SeqVerifier:  1 + r.IntN(4096),
			SeqDecode:    1 + r.IntN(2048),
			BudgetBytes:  int64(1+r.IntN(1<<10)) << (16 + r.IntN(20)), // 64 KiB – 64 TiB
			AllowOffload: r.IntN(2) == 0,
		}
		got, err := Optimize(in)
		want, werr := refOptimize(in)
		if (err != nil) != (werr != nil) {
			t.Fatalf("input %d %+v: err %v, reference %v", i, in, err, werr)
		}
		if got != want || math.Float64bits(got.TotalTime) != math.Float64bits(want.TotalTime) {
			t.Fatalf("input %d %+v:\n got %+v\nwant %+v", i, in, got, want)
		}
		if err == nil {
			plans++
		}
		if got.Offload {
			offloads++
		}
	}
	if plans < 1000 || offloads < 100 || plans == 3000 {
		t.Errorf("inputs drew %d feasible plans (%d offloaded) of 3000: too few of some kind to test", plans, offloads)
	}
	t.Logf("%d feasible plans, %d offloaded", plans, offloads)
}
