package core

import (
	"fasttts/internal/hw"
	"fasttts/internal/model"
	"fasttts/internal/workload"
)

// ModelPair is one of the paper's generator+verifier deployments (§6.1):
// the two models and the skill profiles the simulated workload draws
// their answers and scores from.
type ModelPair struct {
	Name      string
	Generator model.Config
	GenSkill  workload.GeneratorSkill
	Verifier  model.Config
	VerSkill  workload.VerifierSkill
}

// ModelPairs is the paper's pair table in paper order: the
// memory-constrained 1.5B+1.5B, the verifier-heavy 1.5B+7B and the
// generator-heavy 7B+1.5B. The public facade and the figures both deploy
// from it.
var ModelPairs = [...]ModelPair{
	{
		Name:      "1.5B+1.5B",
		Generator: model.Qwen25Math1_5B, GenSkill: workload.SkillQwen1_5B,
		Verifier: model.SkyworkPRM1_5B, VerSkill: workload.SkillSkywork1_5B,
	},
	{
		Name:      "1.5B+7B",
		Generator: model.Qwen25Math1_5B, GenSkill: workload.SkillQwen1_5B,
		Verifier: model.ShepherdPRM7B, VerSkill: workload.SkillShepherd7B,
	},
	{
		Name:      "7B+1.5B",
		Generator: model.Qwen25Math7B, GenSkill: workload.SkillQwen7B,
		Verifier: model.SkyworkPRM1_5B, VerSkill: workload.SkillSkywork1_5B,
	},
}

// PairByName returns the ModelPairs entry with the given name.
func PairByName(name string) (ModelPair, bool) {
	for _, p := range ModelPairs {
		if p.Name == name {
			return p, true
		}
	}
	return ModelPair{}, false
}

// MemoryFraction is the §6.1 memory rule: the 1.5B+1.5B pair is held to
// 40% of the RTX 4090 (the paper's memory-constrained setting), and every
// other pair or device may use 90% — smaller devices are constrained by
// their VRAM already.
func (p ModelPair) MemoryFraction(g hw.GPU) float64 {
	if p.Name == ModelPairs[0].Name && g.Name == hw.RTX4090.Name {
		return 0.4
	}
	return 0.9
}

// Deploy returns the Config placing the pair on g under the memory rule;
// the caller adds the search policy, options and seed.
func (p ModelPair) Deploy(g hw.GPU) Config {
	return Config{
		GPU:            g,
		Generator:      p.Generator,
		GenSkill:       p.GenSkill,
		Verifier:       p.Verifier,
		VerSkill:       p.VerSkill,
		MemoryFraction: p.MemoryFraction(g),
	}
}
