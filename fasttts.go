// Package fasttts is a from-scratch reproduction of FastTTS, the serving
// system for fast Test-Time Scaling (TTS) on memory-constrained edge
// devices (ASPLOS '26). It provides a plug-and-play API for running
// verifier-guided reasoning searches — Best-of-N, Beam Search, DVTS,
// Dynamic Branching, Varying Granularity — over a simulated edge serving
// stack with the paper's three optimizations:
//
//   - Speculative Beam Extension (§4.1) hides straggler latency by
//     generating future reasoning steps in idle batch slots;
//   - Dynamic Prefix-Aware Scheduling (§4.2) orders reasoning paths to
//     maximize KV-cache reuse;
//   - Asymmetric Multi-Model Memory Allocation (§4.3) splits KV memory
//     between generator and verifier with a roofline-guided search.
//
// Because no GPU, CUDA stack, or model weights are available in this
// environment, the neural-network arithmetic is replaced by a
// deterministic discrete-virtual-time simulation calibrated with a
// roofline cost model (the opening section of README.md makes the
// substitution argument); every serving mechanism — paged radix-tree KV
// caching, continuous batching, preemption, offloading — is implemented
// for real.
//
// Quickstart:
//
//	sys, err := fasttts.New(fasttts.Config{
//		GPU:       "RTX 4090",
//		Pair:      fasttts.Pair1_5B1_5B,
//		Algorithm: "Beam Search",
//		NumBeams:  64,
//	})
//	ds, _ := fasttts.LoadDataset("AIME24", 7)
//	res, err := sys.Solve(ds.Problems[0])
//	fmt.Printf("goodput %.1f tok/s, latency %.1fs\n", res.Goodput, res.Latency)
//
// # Multi-tenant serving
//
// Server serves concurrent request streams with an event-driven
// virtual-clock engine that time-slices the device between admitted
// requests and preserves the paper's two-phase preemption semantics
// (§4.1.2): speculation runs only while no other request waits. The
// admission/ordering discipline is a pluggable ServePolicy selected by
// name in ServeConfig — "fcfs" (the sequential seed semantics), "sjf"
// (shortest estimated remaining work, First-Finish style), "priority",
// or "deadline" (earliest-deadline-first) — optionally wrapped with a
// MaxInFlight load-shedding admission limit. Open-loop traffic comes
// from the PoissonRequests / UniformRequests arrival generators;
// closed-loop (fixed-concurrency) traffic from Server.RunClosedLoop.
// Server.Stats aggregates a served stream into exact nearest-rank
// p50/p95/p99 wall latency, queue delay, server goodput, and SLO
// attainment. Equal seeds give bit-identical served streams under every
// policy.
//
//	srv, _ := fasttts.NewServerWith(fasttts.ServeConfig{
//		Config: fasttts.Config{NumBeams: 16, Seed: 42},
//		Policy: "sjf", SLOLatency: 60,
//	})
//	served, _ := srv.Run(fasttts.PoissonRequests(probs, 0.5, 11))
//	fmt.Printf("%+v\n", srv.Stats(served))
//
// # Fleet serving
//
// Cluster composes N per-device serving engines into a heterogeneous
// edge fleet (internal/cluster): each DeviceSpec carries its own GPU,
// model pair, policy, straggler factor, and fail-stop time, and a
// pluggable router named in ClusterConfig assigns every request to a
// device at its arrival instant — "single" (pass-through; a 1-device
// fleet reproduces Server exactly), "rr" (round-robin), "least-work",
// "jsq" (join-shortest-queue), "p2c" (power-of-two-choices), "prefix"
// (prefix-affinity with load fallback, extending §4.2's prefix-aware
// scheduling from intra-device to inter-device), or "cache-aware"
// (drain time plus the re-prefill debt of prompt tokens not resident in
// the device's KV memory plane). The
// failure model is fail-stop at slice granularity: a failing device
// finishes its in-progress slice, then its unfinished requests are
// requeued to the survivors with partial work lost; if no device
// survives, the remainder is reported Rejected. FleetRun.Stats extends
// the server aggregates with per-device utilization and goodput, the
// load-imbalance coefficient, the requeue count, and the fleet
// prompt-prefix KV hit rate. Equal seeds give bit-identical
// fleet-served streams under every router.
//
// The fleet core is event-driven and built to scale: global events
// dispatch from heaps so each event touches only the devices it
// concerns, and router load signals are O(1) incremental indexes rather
// than per-request scans — fleets of hundreds to thousands of devices
// serve high-rate streams with scheduling overhead that grows with
// events·log(devices), not events·devices (see README "Performance" and
// the fleet-dispatch workload of the repository benchmark, benchmark/).
//
//	cl, _ := fasttts.NewCluster(fasttts.ClusterConfig{
//		Devices: []fasttts.DeviceSpec{
//			{Config: fasttts.Config{GPU: "RTX 4090", NumBeams: 16, Seed: 42}},
//			{Config: fasttts.Config{GPU: "RTX 3070 Ti", NumBeams: 16, Seed: 43}, FailAt: 200},
//		},
//		Router: "prefix", Seed: 9,
//	})
//	run, _ := cl.Run(fasttts.PoissonRequests(probs, 0.6, 11))
//	fmt.Printf("%+v\n", run.Stats())
//
// # KV-cache memory plane
//
// Config.KVPlane (or a positive Config.KVPlaneBytes) attaches a
// per-device KV-cache memory plane (internal/memplane): each device's
// KV capacity is sized from its GPU tier (VRAM minus model weights at
// the model's per-token KV cost, or pinned explicitly), prompt prefixes
// stay resident in a radix prefix cache across requests, per-beam
// decode state is charged as the search widens and narrows, and LRU
// eviction reclaims cold prefixes under pressure. A request whose
// prompt prefix was evicted (or never seen) pays a deterministic
// re-prefill latency from the roofline cost model, so cache locality
// has a real price — the "cache-aware" router trades that re-prefill
// debt against load balance using actual per-device residency, and
// FleetStats reports per-device occupancy plus fleet hit/miss/eviction
// token counts and total re-prefill seconds. The plane is off by
// default; zero capacity reproduces prior traces bit-identically.
//
// # Elastic serving
//
// ClusterConfig.Autoscale attaches the elastic control plane
// (internal/control): a deterministic feedback controller observes the
// fleet at a fixed interval (window queue delay, utilization, SLO
// attainment, outstanding work) and actuates two knobs. Horizontally it
// scales up by instantiating warm-pool device templates — each join
// becomes routable after a prefill/warm-up delay — and scales down by
// draining devices (no new routes, accepted work finishes, the device
// leaves the fleet). Vertically a compute-budget governor degrades the
// per-request search budget — each tier halves the effective NumBeams,
// honored by both the solver and the SJF/least-work demand estimates —
// and restores it when load clears. Controllers are selected by name
// like policies and routers: "static", "threshold", "pid", "budget".
// Equal seeds reproduce the applied-action log (FleetRun.Actions)
// bit-identically; FleetStats adds DeviceSeconds (the capacity cost of
// elasticity) and the controller activity summary, and per-device stats
// report live intervals (join to fail/drain/makespan).
//
//	cl, _ := fasttts.NewCluster(fasttts.ClusterConfig{
//		Devices: []fasttts.DeviceSpec{{Config: fasttts.Config{GPU: "RTX 4090", NumBeams: 8, Seed: 42}}},
//		Router:  "least-work", SLOLatency: 120,
//		Autoscale: &fasttts.AutoscaleConfig{
//			Policy: "threshold", Interval: 30, WarmupDelay: 10,
//			WarmPool: []fasttts.DeviceSpec{{Config: fasttts.Config{GPU: "RTX 4090", NumBeams: 8, Seed: 60}, Count: 2}},
//		},
//	})
//	run, _ := cl.Run(fasttts.SinusoidalRequests(probs, 0.22, 1, 240, 11))
//	fmt.Println(run.Stats().DeviceSeconds, run.Actions)
//
// # Test-time-compute strategies
//
// Config.Strategy (per device) and ClusterConfig.Strategy (fleet-wide)
// select how much of each request's search to run — a pluggable policy
// (internal/search) named like serve policies and routers: "full-beam"
// (run to completion, the default), "first-finish[:k]" (stop once k
// reasoning paths finish; latency-first search), "deadline" (cut the
// search at the request's SLO deadline and answer from the finished
// paths), or "hedged" (replicate each request on a second device; the
// first completion wins and the loser is cancelled fleet-wide). Cancellation
// is a deterministic first-class fleet event with its own slot in the
// event-ordering contract (join < fail < cancel < tick < arrival), so
// hedge losers free capacity before the same instant's control tick and
// arrivals observe the fleet; fail-stop composes by withdrawing dead
// copies and requeueing the last live one. The compute-budget governor
// degrades strategies to first-finish under storm tiers and restores
// them when load clears. Strategies are off by default — an empty
// Strategy reproduces prior traces bit-identically (see README
// "Test-time-compute strategies"; TestStrategyTailGains
// pins each strategy's p99 win on its home-turf scenario).
//
// # Workload scenarios and golden-trace regression
//
// RunScenario serves one of the named, composable workload scenarios
// (see Scenarios) on either the single-server or the cluster target.
// Every scenario builds a deterministic request stream and describes its
// deployment with the same public ClusterConfig a caller would write, so
// a run is bit-identically reproducible; ScenarioRun.TraceJSONL
// renders it as a canonical record/replay trace (internal/trace), and
// the committed goldens under testdata/golden gate CI: replaying every
// scenario must reproduce its golden byte-for-byte (`make scenarios`;
// regenerate intentional changes with `make golden`).
//
//	run, _ := fasttts.RunScenario("fleet-churn", fasttts.ScenarioOptions{
//		Target: fasttts.ScenarioCluster,
//	})
//	data, _ := run.TraceJSONL()
//
// # Development
//
// CI (.github/workflows/ci.yml) gates every change on go build, go vet,
// gofmt, go test -race, a coverage-profile run with a per-function
// summary and an uploaded profile artifact, a one-iteration benchmark
// smoke run, and the scenario-conformance job (golden-trace replay);
// `make build / lint / test / bench / cover / scenarios` mirror the same
// gates locally.
package fasttts

import (
	"fmt"

	"fasttts/internal/core"
	"fasttts/internal/hw"
	"fasttts/internal/memplane"
	"fasttts/internal/search"
)

// Pair names a generator+verifier deployment from the paper (§6.1).
type Pair string

const (
	// Pair1_5B1_5B is the memory-constrained configuration:
	// Qwen2.5-Math-1.5B generator + Skywork-o1-Open-PRM-1.5B verifier.
	Pair1_5B1_5B Pair = "1.5B+1.5B"
	// Pair1_5B7B is the verifier-heavy configuration:
	// Qwen2.5-Math-1.5B generator + Math-Shepherd-Mistral-7B verifier.
	Pair1_5B7B Pair = "1.5B+7B"
	// Pair7B1_5B is the generator-heavy configuration:
	// Qwen2.5-Math-7B generator + Skywork-o1-Open-PRM-1.5B verifier.
	Pair7B1_5B Pair = "7B+1.5B"
)

// Mode selects the serving system variant.
type Mode string

const (
	// ModeFastTTS enables all three optimizations (the paper's system).
	ModeFastTTS Mode = "fasttts"
	// ModeBaseline is the vLLM-style baseline (§6.1).
	ModeBaseline Mode = "baseline"
)

// Config configures a serving deployment. Zero values select sensible
// defaults: RTX 4090, the 1.5B+1.5B pair, beam search with n=64, B=4,
// FastTTS mode.
type Config struct {
	// GPU is the device name: "RTX 4090", "RTX 4070 Ti", or "RTX 3070 Ti".
	GPU string
	// Pair selects the generator/verifier models.
	Pair Pair
	// Algorithm is the TTS search method: "Best-of-N", "Beam Search",
	// "DVTS", "Dynamic Branching", "Varying Granularity", or "CoT".
	Algorithm string
	// NumBeams is n, the search width; BranchFactor is B.
	NumBeams     int
	BranchFactor int
	// Mode selects FastTTS or the baseline; Advanced (optional)
	// overrides individual optimization toggles for ablations.
	Mode     Mode
	Advanced *Optimizations
	// MemoryFraction is the usable share of VRAM, in [0, 1] (0 selects
	// the default: 0.4 for the 1.5B+1.5B pair on the RTX 4090 as in the
	// paper's memory-constrained setup, 0.9 otherwise).
	MemoryFraction float64
	// KVBudgetBytes, when positive, pins the KV budget directly
	// (memory-sweep experiments). Negative values are rejected.
	KVBudgetBytes int64
	// AllowOffload enables CPU offloading of the inactive model's KV
	// (required on 8 GB devices).
	AllowOffload bool
	// KVPlane enables the per-device KV-cache memory plane
	// (internal/memplane): a capacity-bounded radix prefix cache that
	// keeps prompt prefixes resident across requests, charges decode
	// state per beam, evicts LRU under pressure, and converts prompt
	// cache misses into roofline-modeled re-prefill latency. Off by
	// default — the zero value reproduces prior behavior bit-identically.
	KVPlane bool
	// KVPlaneBytes, when positive, pins the plane's KV capacity in bytes
	// (and implies KVPlane); with KVPlane set and KVPlaneBytes 0 the
	// capacity auto-sizes to the device's KV budget (VRAM × MemoryFraction
	// minus weights and reservation). Negative values are rejected.
	KVPlaneBytes int64
	// Strategy names the test-time-compute strategy the solver honors:
	// "full-beam" (explicit legacy semantics), "first-finish" (return on
	// the first completed chain; an optional ":k" launches only k chains),
	// "deadline" (early-terminate a request whose deadline passes
	// mid-solve), or "hedged" (fleet-level: replicate each request to a
	// second device and cancel the loser — a per-device no-op here).
	// Empty disables strategies; behavior is then bit-identical to
	// pre-strategy builds.
	Strategy string
	// Seed drives all randomness; equal seeds give bit-identical runs.
	Seed uint64
}

// Optimizations exposes the ablation toggles (Fig 16's P/M/S axes).
type Optimizations struct {
	SpeculativeBeamExtension bool    // S
	PrefixAwareScheduling    bool    // P (implies generator prefix caching)
	AsymmetricMemory         bool    // M
	LookAheadVerification    bool    // part of S
	TruncationRatio          float64 // R (Fig 17 right)
	SpecBins                 int     // score bins for candidate selection
}

// System is a configured serving deployment. It is safe to reuse across
// problems; every Solve runs on a fresh virtual serving stack.
type System struct {
	cfg    core.Config
	runner *core.Runner
}

// New validates the configuration and builds the system.
func New(c Config) (*System, error) {
	cc, err := buildCoreConfig(c)
	if err != nil {
		return nil, err
	}
	runner, err := core.NewRunner(cc)
	if err != nil {
		return nil, err
	}
	return &System{cfg: cc, runner: runner}, nil
}

func buildCoreConfig(c Config) (core.Config, error) {
	if c.GPU == "" {
		c.GPU = "RTX 4090"
	}
	gpu, err := hw.ByName(c.GPU)
	if err != nil {
		return core.Config{}, err
	}
	if c.Pair == "" {
		c.Pair = Pair1_5B1_5B
	}
	pair, ok := core.PairByName(string(c.Pair))
	if !ok {
		return core.Config{}, fmt.Errorf("fasttts: unknown model pair %q", c.Pair)
	}
	if c.Algorithm == "" {
		c.Algorithm = string(search.BeamSearch)
	}
	if c.NumBeams == 0 {
		c.NumBeams = 64
	}
	if c.BranchFactor == 0 {
		c.BranchFactor = 4
	}
	pol, err := search.New(search.Algorithm(c.Algorithm), c.NumBeams, c.BranchFactor)
	if err != nil {
		return core.Config{}, err
	}
	var opts core.Options
	switch {
	case c.Advanced != nil:
		opts = core.Options{
			Speculative:      c.Advanced.SpeculativeBeamExtension,
			PrefixAware:      c.Advanced.PrefixAwareScheduling,
			AsymmetricMemory: c.Advanced.AsymmetricMemory,
			LookAhead:        c.Advanced.LookAheadVerification,
			PrefixCache:      c.Advanced.PrefixAwareScheduling,
			TruncationRatio:  c.Advanced.TruncationRatio,
			SpecBins:         c.Advanced.SpecBins,
		}
	case c.Mode == ModeBaseline:
		opts = core.BaselineOptions()
	default:
		opts = core.FastTTSOptions()
	}
	opts.AllowOffload = c.AllowOffload
	strat, err := search.ParseStrategy(c.Strategy)
	if err != nil {
		return core.Config{}, fmt.Errorf("fasttts: %w", err)
	}
	cc := pair.Deploy(gpu)
	if c.MemoryFraction != 0 {
		cc.MemoryFraction = c.MemoryFraction
	}
	cc.KVBudgetOverride = c.KVBudgetBytes
	cc.Policy, cc.Strategy, cc.Opts, cc.Seed = pol, strat, opts, c.Seed
	if c.KVPlaneBytes < 0 {
		return core.Config{}, fmt.Errorf("fasttts: KVPlaneBytes must be non-negative, got %d (0 disables the memory plane)", c.KVPlaneBytes)
	}
	if c.KVPlane || c.KVPlaneBytes > 0 {
		capacity := c.KVPlaneBytes
		if capacity == 0 {
			budget, err := cc.KVBudget()
			if err != nil {
				return core.Config{}, err
			}
			capacity = budget
		}
		cc.KVPlane = memplane.Config{CapacityBytes: capacity}
	}
	return cc, nil
}

// Solve runs the configured search for one problem.
func (s *System) Solve(p *Problem) (*Result, error) {
	res, err := s.runner.Solve(p.inner)
	if err != nil {
		return nil, err
	}
	out := wrapResult(res)
	out.Problem = p
	return out, nil
}
