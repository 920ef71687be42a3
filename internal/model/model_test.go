package model

import (
	"testing"
	"testing/quick"

	"fasttts/internal/hw"
)

func TestByName(t *testing.T) {
	for _, name := range []string{
		"Qwen2.5-Math-1.5B", "Qwen2.5-Math-7B",
		"Math-Shepherd-Mistral-7B", "Skywork-o1-Open-PRM-1.5B",
	} {
		c, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if c.Name != name {
			t.Errorf("got %q", c.Name)
		}
	}
	if _, err := ByName("GPT-5"); err == nil {
		t.Error("expected error for unknown model")
	}
}

func TestWeightBytesFP16(t *testing.T) {
	c := Qwen25Math1_5B
	want := int64(2 * 1_540_000_000)
	if got := c.WeightBytes(); got != want {
		t.Errorf("WeightBytes = %d, want %d", got, want)
	}
}

func TestQuantizationShrinksWeights(t *testing.T) {
	fp16 := Qwen25Math7B.WeightBytes()
	int8 := Qwen25Math7B.WithQuant(INT8).WeightBytes()
	int4 := Qwen25Math7B.WithQuant(INT4).WeightBytes()
	if !(int4 < int8 && int8 < fp16) {
		t.Errorf("quantization ordering wrong: fp16=%d int8=%d int4=%d", fp16, int8, int4)
	}
	if int8 != fp16/2 || int4 != fp16/4 {
		t.Errorf("quantization ratios wrong: fp16=%d int8=%d int4=%d", fp16, int8, int4)
	}
}

func TestKVBytesPerTokenMatchesArchitecture(t *testing.T) {
	// Qwen 1.5B: 2 (K,V) * 28 layers * 2 kv-heads * 128 dim * 2 bytes = 28672.
	if got := Qwen25Math1_5B.KVBytesPerToken(); got != 28672 {
		t.Errorf("Qwen1.5B KV/token = %d, want 28672", got)
	}
	// Mistral-7B PRM: 2 * 32 * 8 * 128 * 2 = 131072 (128 KiB/token).
	if got := ShepherdPRM7B.KVBytesPerToken(); got != 131072 {
		t.Errorf("Shepherd KV/token = %d, want 131072", got)
	}
}

func TestKVBytesLinear(t *testing.T) {
	f := func(b, s uint8) bool {
		batch, seq := int(b%32)+1, int(s)+1
		c := Qwen25Math1_5B
		return c.KVBytes(batch, seq) == int64(batch)*int64(seq)*c.KVBytesPerToken()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVerifierKVHeavierThanGenerator(t *testing.T) {
	// The 1.5B+7B config is "verifier-heavy" (§6.1): the 7B Mistral PRM
	// has >4x the KV footprint per token of the 1.5B generator.
	g := Qwen25Math1_5B.KVBytesPerToken()
	v := ShepherdPRM7B.KVBytesPerToken()
	if v <= 4*g {
		t.Errorf("expected verifier KV (%d) > 4x generator KV (%d)", v, g)
	}
}

func TestDecodeFLOPsGrowWithContext(t *testing.T) {
	d := NewDecodeRoofline(Qwen25Math7B, hw.RTX4090)
	if !(d.flops(1, 2048) > d.flops(1, 128)) {
		t.Error("decode FLOPs should grow with context")
	}
	// MLP term dominates at short context: roughly 2*params.
	got := d.flops(1, 0)
	want := 2 * float64(Qwen25Math7B.Params)
	if got != want {
		t.Errorf("zero-context decode FLOPs = %g, want %g", got, want)
	}
}

func TestPrefillFLOPsSuperlinearInTokens(t *testing.T) {
	c := Qwen25Math1_5B
	f1 := c.PrefillFLOPs(512, 512)
	f2 := c.PrefillFLOPs(1024, 1024)
	if f2 <= 2*f1 {
		t.Error("prefill FLOPs should be superlinear (attention is quadratic)")
	}
}

func TestDecodeBytesDominatedByWeightsAtSmallBatch(t *testing.T) {
	c := Qwen25Math1_5B
	d := NewDecodeRoofline(c, hw.RTX4090)
	b1 := d.bytes(1, 256)
	weights := float64(c.WeightBytes())
	if b1 < weights || b1 > 1.2*weights {
		t.Errorf("single-seq decode bytes %g should be ~weights %g", b1, weights)
	}
	// Large batch with long contexts: KV reads dominate.
	bBig := d.bytes(512, 512*2000)
	if bBig < 2*weights {
		t.Error("large-batch decode bytes should exceed weight reads substantially")
	}
}

func TestPrefillBytesGrowWithTokens(t *testing.T) {
	c := Qwen25Math1_5B
	if !(c.PrefillBytes(4096) > c.PrefillBytes(16)) {
		t.Error("prefill bytes should grow with token count")
	}
}

func TestCloudModelsInventory(t *testing.T) {
	if len(CloudModels) != 3 {
		t.Fatalf("CloudModels = %d entries, want 3", len(CloudModels))
	}
	for _, m := range CloudModels {
		if m.ActivatedBytes > m.TotalBytes {
			t.Errorf("%s: activated %d > total %d", m.Name, m.ActivatedBytes, m.TotalBytes)
		}
		// Every cloud model is far beyond a 24 GB edge GPU (Fig 1a).
		if m.ActivatedBytes <= 24<<30 {
			t.Errorf("%s: activated %d unexpectedly fits on a 4090", m.Name, m.ActivatedBytes)
		}
	}
}

func TestEdgePairFitsOn4090(t *testing.T) {
	// Fig 1a: Qwen2.5-1.5B + Skywork-1.5B TTS pair = ~6 GB, fits in 24 GB.
	pair := Qwen25Math1_5B.WeightBytes() + SkyworkPRM1_5B.WeightBytes()
	if pair >= 24<<30 {
		t.Errorf("1.5B+1.5B pair (%d bytes) should fit on a 4090", pair)
	}
}

func TestStringMentionsQuant(t *testing.T) {
	s := Qwen25Math1_5B.WithQuant(INT4).String()
	if s == "" {
		t.Fatal("empty String()")
	}
}
