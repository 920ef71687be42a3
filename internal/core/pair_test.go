package core

import (
	"testing"

	"fasttts/internal/hw"
	"fasttts/internal/model"
	"fasttts/internal/workload"
)

// TestModelPairsTable pins the paper's pair table (§6.1): order, models
// and skills, and the memory rule on every shipped GPU — 0.4 of VRAM for
// 1.5B+1.5B on the RTX 4090, 0.9 for everything else.
func TestModelPairsTable(t *testing.T) {
	want := []struct {
		name     string
		gen, ver model.Config
		genSkill workload.GeneratorSkill
		verSkill workload.VerifierSkill
		frac     map[string]float64
	}{
		{"1.5B+1.5B", model.Qwen25Math1_5B, model.SkyworkPRM1_5B, workload.SkillQwen1_5B, workload.SkillSkywork1_5B,
			map[string]float64{"RTX 4090": 0.4, "RTX 4070 Ti": 0.9, "RTX 3070 Ti": 0.9}},
		{"1.5B+7B", model.Qwen25Math1_5B, model.ShepherdPRM7B, workload.SkillQwen1_5B, workload.SkillShepherd7B,
			map[string]float64{"RTX 4090": 0.9, "RTX 4070 Ti": 0.9, "RTX 3070 Ti": 0.9}},
		{"7B+1.5B", model.Qwen25Math7B, model.SkyworkPRM1_5B, workload.SkillQwen7B, workload.SkillSkywork1_5B,
			map[string]float64{"RTX 4090": 0.9, "RTX 4070 Ti": 0.9, "RTX 3070 Ti": 0.9}},
	}
	if len(ModelPairs) != len(want) {
		t.Fatalf("%d pairs, want %d", len(ModelPairs), len(want))
	}
	for i, w := range want {
		p := ModelPairs[i]
		if p.Name != w.name || p.Generator.Name != w.gen.Name || p.Verifier.Name != w.ver.Name ||
			p.GenSkill != w.genSkill || p.VerSkill != w.verSkill {
			t.Errorf("pair %d = %s (%s + %s), want %s (%s + %s)", i,
				p.Name, p.Generator.Name, p.Verifier.Name, w.name, w.gen.Name, w.ver.Name)
		}
		if got, ok := PairByName(w.name); !ok || got.Name != w.name {
			t.Errorf("PairByName(%q) = %q, %v", w.name, got.Name, ok)
		}
		for _, g := range []hw.GPU{hw.RTX4090, hw.RTX4070Ti, hw.RTX3070Ti} {
			if got := p.MemoryFraction(g); got != w.frac[g.Name] {
				t.Errorf("%s on %s: memory fraction %v, want %v", p.Name, g.Name, got, w.frac[g.Name])
			}
			if cfg := p.Deploy(g); cfg.GPU.Name != g.Name || cfg.MemoryFraction != w.frac[g.Name] ||
				cfg.Generator.Name != w.gen.Name || cfg.Verifier.Name != w.ver.Name {
				t.Errorf("%s.Deploy(%s) = %s, %v, %s + %s", p.Name, g.Name,
					cfg.GPU.Name, cfg.MemoryFraction, cfg.Generator.Name, cfg.Verifier.Name)
			}
		}
	}
	if _, ok := PairByName("3B+3B"); ok {
		t.Error("PairByName accepted an unknown pair")
	}
}
