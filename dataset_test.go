package fasttts

// Direct table tests for dataset.go: catalog coverage, deterministic
// materialization, field invariants, and Subset edge cases.

import "testing"

func TestLoadDatasetCatalog(t *testing.T) {
	cases := []struct {
		name     string
		problems int
	}{
		{"AIME24", 30},
		{"AMC23", 40},
		{"MATH500", 500},
		{"HumanEval", 164},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ds, err := LoadDataset(tc.name, 7)
			if err != nil {
				t.Fatal(err)
			}
			if ds.Name != tc.name {
				t.Errorf("Name = %q, want %q", ds.Name, tc.name)
			}
			if len(ds.Problems) != tc.problems {
				t.Fatalf("%d problems, want %d", len(ds.Problems), tc.problems)
			}
			for i, p := range ds.Problems {
				if p.Dataset != tc.name || p.Index != i {
					t.Fatalf("problem %d labeled %s/%d", i, p.Dataset, p.Index)
				}
				if p.Difficulty < 0 || p.Difficulty > 1 {
					t.Fatalf("problem %d difficulty %v outside [0,1]", i, p.Difficulty)
				}
			}
		})
	}
}

func TestLoadDatasetUnknownNames(t *testing.T) {
	for _, name := range []string{"", "GSM8K", "aime24"} {
		if _, err := LoadDataset(name, 7); err == nil {
			t.Errorf("LoadDataset(%q) did not error", name)
		}
	}
}

func TestLoadDatasetDeterministic(t *testing.T) {
	a, err := LoadDataset("AMC23", 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := LoadDataset("AMC23", 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Problems {
		if a.Problems[i].Difficulty != b.Problems[i].Difficulty {
			t.Fatalf("problem %d differs across equal seeds", i)
		}
	}
	c, err := LoadDataset("AMC23", 8)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Problems {
		if a.Problems[i].Difficulty != c.Problems[i].Difficulty {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 7 and 8 materialized identical datasets")
	}
}

func TestDatasetSubset(t *testing.T) {
	ds, err := LoadDataset("AIME24", 7)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ n, want int }{
		{-1, 0}, {0, 0}, {1, 1}, {30, 30}, {1000, 30},
	}
	for _, tc := range cases {
		if got := len(ds.Subset(tc.n)); got != tc.want {
			t.Errorf("Subset(%d) = %d problems, want %d", tc.n, got, tc.want)
		}
	}
	// Subset is a prefix view, not a copy of different problems.
	if sub := ds.Subset(3); sub[0] != ds.Problems[0] || sub[2] != ds.Problems[2] {
		t.Error("Subset did not return the leading problems")
	}
}
