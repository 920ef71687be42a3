package fasttts

import (
	"math"
	"reflect"
	"testing"

	"fasttts/internal/core"
	"fasttts/internal/hw"
)

func TestNewDefaults(t *testing.T) {
	sys, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if sys == nil {
		t.Fatal("nil system")
	}
}

// TestBuildCoreConfigResolvesPairs: every public Pair constant resolves
// through core.ModelPairs, in paper order, under the table's memory rule
// unless MemoryFraction pins one; the zero Pair is the first entry.
func TestBuildCoreConfigResolvesPairs(t *testing.T) {
	pairs := []Pair{Pair1_5B1_5B, Pair1_5B7B, Pair7B1_5B}
	if len(pairs) != len(core.ModelPairs) {
		t.Fatalf("%d public pairs, %d in the table", len(pairs), len(core.ModelPairs))
	}
	for i, p := range pairs {
		want := core.ModelPairs[i]
		if string(p) != want.Name {
			t.Errorf("Pair %q is entry %d of the table, named %q", p, i, want.Name)
		}
		for _, gpu := range []hw.GPU{hw.RTX4090, hw.RTX4070Ti} {
			cc, err := buildCoreConfig(Config{GPU: gpu.Name, Pair: p})
			if err != nil {
				t.Fatalf("%s on %s: %v", p, gpu.Name, err)
			}
			if !reflect.DeepEqual(cc.Generator, want.Generator) || !reflect.DeepEqual(cc.Verifier, want.Verifier) ||
				cc.GenSkill != want.GenSkill || cc.VerSkill != want.VerSkill {
				t.Errorf("%s on %s deployed %s + %s, want %s + %s", p, gpu.Name,
					cc.Generator.Name, cc.Verifier.Name, want.Generator.Name, want.Verifier.Name)
			}
			if cc.MemoryFraction != want.MemoryFraction(gpu) {
				t.Errorf("%s on %s: memory fraction %v, want %v", p, gpu.Name, cc.MemoryFraction, want.MemoryFraction(gpu))
			}
		}
		if cc, err := buildCoreConfig(Config{Pair: p, MemoryFraction: 0.7}); err != nil || cc.MemoryFraction != 0.7 {
			t.Errorf("%s with MemoryFraction 0.7: %v, %v", p, cc.MemoryFraction, err)
		}
	}
	if cc, err := buildCoreConfig(Config{}); err != nil || cc.Generator.Name != core.ModelPairs[0].Generator.Name ||
		cc.Verifier.Name != core.ModelPairs[0].Verifier.Name {
		t.Errorf("zero Pair deployed %s + %s (%v), want the first table entry", cc.Generator.Name, cc.Verifier.Name, err)
	}
	if _, err := buildCoreConfig(Config{Pair: "3B+3B"}); err == nil {
		t.Error("buildCoreConfig accepted an unknown pair")
	}
}

func TestNewValidation(t *testing.T) {
	cases := []Config{
		{GPU: "H100"},
		{Pair: "13B+13B"},
		{Algorithm: "MCTS-9000"},
		{NumBeams: -1},
		{Pair: Pair7B1_5B, GPU: "RTX 3070 Ti"}, // 7B weights exceed 8 GB
	}
	for i, c := range cases {
		if _, err := New(c); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, c)
		}
	}
}

// TestBadMemorySettingsRejected: memory settings outside their documented
// ranges fail at construction on every entry point, instead of sizing an
// absurd KV budget (a NaN or +Inf fraction wraps the int64 conversion)
// or being silently replaced or ignored.
func TestBadMemorySettingsRejected(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"fraction NaN", Config{MemoryFraction: nan}},
		{"fraction +Inf", Config{MemoryFraction: inf}},
		{"fraction 5", Config{MemoryFraction: 5}},
		{"fraction -0.5", Config{MemoryFraction: -0.5}},
		{"fraction NaN with KV plane", Config{MemoryFraction: nan, KVPlane: true}},
		{"truncation ratio NaN", Config{Advanced: &Optimizations{TruncationRatio: nan}}},
		{"negative KV budget", Config{KVBudgetBytes: -1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(tc.cfg); err == nil {
				t.Error("New accepted it")
			}
			if _, err := NewServer(tc.cfg); err == nil {
				t.Error("NewServer accepted it")
			}
			if _, err := NewCluster(ClusterConfig{Devices: []DeviceSpec{{Config: tc.cfg}}}); err == nil {
				t.Error("NewCluster accepted it")
			}
		})
	}
	for _, frac := range []float64{0, 0.4, 1} {
		if _, err := New(Config{MemoryFraction: frac}); err != nil {
			t.Errorf("MemoryFraction %v rejected: %v", frac, err)
		}
	}
}

func TestSolveQuickstart(t *testing.T) {
	sys, err := New(Config{NumBeams: 16, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := LoadDataset("AIME24", 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Solve(ds.Problems[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.Goodput <= 0 || res.Latency <= 0 || len(res.Paths) == 0 {
		t.Errorf("degenerate result: %+v", res)
	}
	if got := res.GenLatency + res.VerLatency + res.TransferLatency; got <= 0 || got > res.Latency*1.000001 {
		t.Errorf("latency breakdown %v vs total %v", got, res.Latency)
	}
}

func TestLoadDatasetUnknown(t *testing.T) {
	if _, err := LoadDataset("GSM8K", 1); err == nil {
		t.Error("unknown dataset accepted")
	}
	ds, err := LoadDataset("AMC23", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Problems) != 40 {
		t.Errorf("AMC23 problems = %d", len(ds.Problems))
	}
	if got := len(ds.Subset(3)); got != 3 {
		t.Errorf("Subset(3) = %d", got)
	}
}

func TestBaselineVsFastTTS(t *testing.T) {
	ds, _ := LoadDataset("AIME24", 7)
	p := ds.Problems[0]
	solve := func(mode Mode) *Result {
		sys, err := New(Config{NumBeams: 32, Mode: mode, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := solve(ModeBaseline)
	fast := solve(ModeFastTTS)
	if fast.Goodput <= base.Goodput {
		t.Errorf("FastTTS goodput %.2f not above baseline %.2f", fast.Goodput, base.Goodput)
	}
	if fast.Latency >= base.Latency {
		t.Errorf("FastTTS latency %.2f not below baseline %.2f", fast.Latency, base.Latency)
	}
	// Algorithmic equivalence at the API level: identical answers.
	if len(base.Paths) != len(fast.Paths) {
		t.Fatalf("path counts differ: %d vs %d", len(base.Paths), len(fast.Paths))
	}
	for i := range base.Paths {
		if base.Paths[i].Answer != fast.Paths[i].Answer {
			t.Errorf("path %d answers diverge", i)
		}
	}
	if base.Top1Correct() != fast.Top1Correct() {
		t.Error("Top-1 outcome diverged between modes")
	}
}

func TestAdvancedOverrides(t *testing.T) {
	sys, err := New(Config{
		NumBeams: 16,
		Advanced: &Optimizations{
			SpeculativeBeamExtension: true,
			PrefixAwareScheduling:    true,
			TruncationRatio:          0.5,
		},
		Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	ds, _ := LoadDataset("AIME24", 7)
	res, err := sys.Solve(ds.Problems[1])
	if err != nil {
		t.Fatal(err)
	}
	if res.SpecTokens == 0 {
		t.Error("speculation disabled despite override")
	}
}

func TestSummarize(t *testing.T) {
	sys, err := New(Config{NumBeams: 16, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	ds, _ := LoadDataset("AMC23", 7)
	var results []*Result
	for _, p := range ds.Subset(4) {
		res, err := sys.Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	sum := Summarize(results)
	if sum.Problems != 4 {
		t.Errorf("problems = %d", sum.Problems)
	}
	if sum.MeanGoodput <= 0 || sum.MeanLatency <= 0 {
		t.Errorf("summary = %+v", sum)
	}
	if sum.Top1Accuracy < 0 || sum.Top1Accuracy > 100 {
		t.Errorf("accuracy = %v", sum.Top1Accuracy)
	}
}

func TestServerPreemptsSpeculation(t *testing.T) {
	ds, _ := LoadDataset("AIME24", 7)
	srv, err := NewServer(Config{NumBeams: 32, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	// Second request arrives immediately: request 1's speculative phase
	// must be fully preempted.
	out, err := srv.Run([]Request{
		{Problem: ds.Problems[0], ArrivalTime: 0},
		{Problem: ds.Problems[1], ArrivalTime: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("results = %d", len(out))
	}
	if out[0].SpecTokens != 0 {
		t.Errorf("request 1 speculated %d tokens despite a waiting request", out[0].SpecTokens)
	}
	// Last request in the queue has nothing behind it: free to speculate.
	if out[1].SpecTokens == 0 {
		t.Error("request 2 should speculate with an empty queue")
	}
	if out[1].QueueDelay <= 0 {
		t.Errorf("request 2 queue delay = %v, want > 0", out[1].QueueDelay)
	}
	if out[1].StartTime < out[0].FinishTime {
		t.Error("FCFS violated")
	}
}

func TestServerIdleArrivals(t *testing.T) {
	ds, _ := LoadDataset("AMC23", 7)
	srv, err := NewServer(Config{NumBeams: 16, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	// Requests spaced far apart: no queueing, both speculate.
	out, err := srv.Run([]Request{
		{Problem: ds.Problems[0], ArrivalTime: 0},
		{Problem: ds.Problems[1], ArrivalTime: 1e6},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, sv := range out {
		if sv.QueueDelay != 0 {
			t.Errorf("request %d queued %v despite idle server", i, sv.QueueDelay)
		}
		if sv.SpecTokens == 0 {
			t.Errorf("request %d did not speculate on an idle server", i)
		}
	}
}

func TestOffloadConfig(t *testing.T) {
	sys, err := New(Config{
		GPU:          "RTX 3070 Ti",
		Pair:         Pair1_5B1_5B,
		NumBeams:     16,
		AllowOffload: true,
		Seed:         42,
	})
	if err != nil {
		t.Fatal(err)
	}
	ds, _ := LoadDataset("AIME24", 7)
	res, err := sys.Solve(ds.Problems[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Paths) == 0 {
		t.Error("no paths on offloading config")
	}
}
