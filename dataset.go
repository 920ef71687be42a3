package fasttts

import (
	"fasttts/internal/rng"
	"fasttts/internal/workload"
)

// Problem is one benchmark question.
type Problem struct {
	Dataset    string
	Index      int
	Difficulty float64 // 0 (trivial) .. 1 (beyond the model)
	inner      *workload.Problem
}

// Dataset is a realized benchmark.
type Dataset struct {
	Name     string
	Problems []*Problem
}

// LoadDataset materializes one of the paper's benchmarks — "AIME24",
// "AMC23", "MATH500", or "HumanEval" — deterministically from the seed.
func LoadDataset(name string, seed uint64) (*Dataset, error) {
	spec, err := workload.SpecByName(name)
	if err != nil {
		return nil, err
	}
	ds := workload.NewDataset(spec, rng.New(seed))
	out := &Dataset{Name: name}
	for _, p := range ds.Problems {
		out.Problems = append(out.Problems, &Problem{
			Dataset:    p.Dataset,
			Index:      p.Index,
			Difficulty: p.Difficulty,
			inner:      p,
		})
	}
	return out, nil
}

// Subset returns the first n problems (all if fewer exist, none if n is
// negative).
func (d *Dataset) Subset(n int) []*Problem {
	return d.Problems[:min(max(n, 0), len(d.Problems))]
}
