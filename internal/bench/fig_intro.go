package bench

import (
	"fasttts/internal/core"
	"fasttts/internal/hw"
	"fasttts/internal/model"
	"fasttts/internal/rng"
	"fasttts/internal/search"
	"fasttts/internal/workload"
)

func rngFor(seed uint64) *rng.Stream { return rng.New(seed) }

// Fig1aMemory reproduces Fig 1a: the memory footprint of edge models, the
// edge TTS pair, and cloud reasoning models against a 4090's VRAM.
func Fig1aMemory(o RunOpts) (*Report, error) {
	r := &Report{
		ID:     "1a",
		Title:  "Memory cost across models (GiB)",
		Header: []string{"model", "total_gib", "activated_gib", "fits_24gb"},
	}
	add := func(name string, total, act int64) {
		fits := "yes"
		if act > hw.RTX4090.VRAMBytes {
			fits = "no"
		}
		r.Rows = append(r.Rows, []string{
			name, f1(float64(total) / (1 << 30)), f1(float64(act) / (1 << 30)), fits,
		})
	}
	q := model.Qwen25Math1_5B.WeightBytes()
	s := model.SkyworkPRM1_5B.WeightBytes()
	add("Qwen2.5-1.5B", q, q)
	add("Qwen2.5-1.5B + Skywork-1.5B (TTS)", q+s, q+s)
	for _, c := range model.CloudModels {
		add(c.Name, c.TotalBytes, c.ActivatedBytes)
	}
	r.Notes = append(r.Notes,
		"paper: edge pair ~6 GB fits a 24 GB 4090; every cloud model's activated footprint exceeds it")
	return r, nil
}

// Fig1bLatencyFrontier reproduces Fig 1b: the vLLM baseline needs ~2x the
// cloud model's first-answer latency to match cloud accuracy; FastTTS
// pushes the edge point below cloud latency.
func Fig1bLatencyFrontier(o RunOpts) (*Report, error) {
	o = o.withDefaults()
	// Cloud reference: first-answer latency of GPT-o3-pro / GPT-5 class
	// thinking models (paper cites artificialanalysis.ai; ~100 s).
	const cloudLatency = 105.0
	pol, err := search.New(search.BeamSearch, min(256, o.MaxN), 4)
	if err != nil {
		return nil, err
	}
	r := &Report{
		ID:     "1b",
		Title:  "Edge TTS latency vs cloud first-answer latency (AIME, beam search)",
		Header: []string{"system", "latency_s", "vs_cloud"},
	}
	base, fast, err := versus(deployment(hw.RTX4090, core.ModelPairs[0], pol, core.Options{}, o.Seed), workload.AIME24, o)
	if err != nil {
		return nil, err
	}
	for _, sys := range []struct {
		name string
		rs   []*core.Result
	}{
		{"vLLM baseline (edge)", base},
		{"FastTTS (edge)", fast},
	} {
		lat, _, _ := meanLatency(sys.rs)
		r.Rows = append(r.Rows, []string{sys.name, f1(lat), f2(lat / cloudLatency)})
	}
	r.Rows = append(r.Rows, []string{"cloud thinking model (reference)", f1(cloudLatency), "1.00"})
	r.Notes = append(r.Notes,
		"paper: baseline ~200 s (~2x cloud); FastTTS brings edge TTS at or below cloud latency")
	return r, nil
}
