package fasttts

import (
	"fmt"
	"strings"

	"fasttts/internal/rng"
	"fasttts/internal/workload"
)

// scenarioRequest is one catalog request: a benchmark problem reference
// plus client-side metadata. problem indexes into the named dataset as
// materialized from the run seed.
type scenarioRequest struct {
	dataset  string
	problem  int
	arrival  float64
	priority int
	deadline float64
}

// scenarioSpec is one built scenario: the request stream plus the public
// configs both targets are built from.
type scenarioSpec struct {
	// requests is the deterministic request stream, sorted by arrival.
	requests []scenarioRequest
	// serve holds the single-server target's Policy and MaxInFlight; its
	// deployment is cluster.Devices[0], its strategy and SLO the cluster's.
	serve ServeConfig
	// cluster is the fleet target. Its Seed is the run seed the datasets
	// are materialized from.
	cluster ClusterConfig
}

// scenarioParams scales a scenario. The zero value selects scenario
// defaults.
type scenarioParams struct {
	// requests is the stream length; 0 means the scenario default.
	requests int
	// seed drives all randomness (arrivals, problem mixes, router, device
	// engines); 0 means 42.
	seed uint64
}

func (p scenarioParams) withDefaults(defaultRequests int) scenarioParams {
	if p.requests <= 0 {
		p.requests = defaultRequests
	}
	if p.seed == 0 {
		p.seed = 42
	}
	return p
}

// scenarioDef is one named, composable workload generator.
type scenarioDef struct {
	ScenarioInfo
	build func(scenarioParams) scenarioSpec
}

// scenarioCatalog returns the catalog in display order.
func scenarioCatalog() []scenarioDef {
	return []scenarioDef{
		{ScenarioInfo{"steady", "uniform-spacing single-dataset baseline on a homogeneous fleet"}, buildSteady},
		{ScenarioInfo{"diurnal", "sinusoidal-rate arrivals over a day-like cycle, MATH500/AMC23 mix"}, buildDiurnal},
		{ScenarioInfo{"flash-crowd", "low base rate with a sudden 8x spike against admission limits"}, buildFlashCrowd},
		{ScenarioInfo{"heavy-tail", "AIME-dominated problem mix with heavy-tailed service demand under SJF"}, buildHeavyTail},
		{ScenarioInfo{"tenant-mix", "multi-dataset tenants with priorities and SLO deadlines on a multi-algorithm fleet"}, buildTenantMix},
		{ScenarioInfo{"fleet-churn", "staggered device fail-stops plus a straggler under work-aware routing"}, buildFleetChurn},
		{ScenarioInfo{"burst-storm", "repeated synchronized bursts against per-device admission limits"}, buildBurstStorm},
		{ScenarioInfo{"autoscale-diurnal", "diurnal scale-to-fit: threshold controller tracks a sinusoidal rate with a warm pool"}, buildAutoscaleDiurnal},
		{ScenarioInfo{"flash-absorb", "flash-crowd absorb: PID controller soaks an 8x spike with warm-pool joins"}, buildFlashAbsorb},
		{ScenarioInfo{"budget-storm", "budget-degrade-under-storm: compute-budget governor narrows search width under bursts"}, buildBudgetStorm},
		{ScenarioInfo{"cache-thrash", "repeated prompts against tight per-device KV memory planes under cache-aware routing"}, buildCacheThrash},
		{ScenarioInfo{"shared-prefix-storm", "synchronized bursts over a tiny hot prompt set under prefix-affinity routing with KV planes"}, buildSharedPrefixStorm},
		{ScenarioInfo{"first-finish-mix", "AIME-heavy problem mix served under the first-finish strategy: answer on the first converged chain"}, buildFirstFinishMix},
		{ScenarioInfo{"hedged-tail", "straggler-skewed fleet where hedged cross-device replication cancels the slow copy and buys the tail"}, buildHedgedTail},
	}
}

// scenarioNames lists the catalog's scenario names in display order.
func scenarioNames() []string {
	all := scenarioCatalog()
	out := make([]string, len(all))
	for i, s := range all {
		out[i] = s.Name
	}
	return out
}

// scenarioByName resolves a scenario from its CLI/config name. It returns
// an error — never panics — on unknown or empty names.
func scenarioByName(name string) (scenarioDef, error) {
	key := strings.ToLower(strings.TrimSpace(name))
	for _, s := range scenarioCatalog() {
		if s.Name == key {
			return s, nil
		}
	}
	return scenarioDef{}, fmt.Errorf("scenario: unknown scenario %q (want one of %s)",
		name, strings.Join(scenarioNames(), ", "))
}

// --- builders ---

// beams8 is one catalog fleet member: a GPU running the default search
// at width 8.
func beams8(gpu string, seed uint64) DeviceSpec {
	return DeviceSpec{Config: Config{GPU: gpu, NumBeams: 8, Seed: seed}}
}

// defaultFleet is the 3-device heterogeneous fleet used by scenarios that
// don't inject faults: a fast 4090, a mid 4070 Ti running SJF, and a slow
// 3070 Ti. Device seeds derive from the run seed so distinct runs get
// distinct (but reproducible) engines.
func defaultFleet(seed uint64) []DeviceSpec {
	mid := beams8("RTX 4070 Ti", seed+2)
	mid.Policy = "sjf"
	return []DeviceSpec{beams8("RTX 4090", seed+1), mid, beams8("RTX 3070 Ti", seed+3)}
}

// mixEntry is one weighted dataset in a tenant/problem mix.
type mixEntry struct {
	dataset string
	weight  float64
}

// mixProblems draws one problem reference per arrival from a weighted
// dataset mix, deterministically from the stream.
func mixProblems(arrivals []float64, mix []mixEntry, r *rng.Stream) []scenarioRequest {
	total := 0.0
	for _, m := range mix {
		total += m.weight
	}
	out := make([]scenarioRequest, len(arrivals))
	for i, at := range arrivals {
		x := r.Float64() * total
		pick := mix[len(mix)-1]
		for _, m := range mix {
			if x < m.weight {
				pick = m
				break
			}
			x -= m.weight
		}
		spec, err := workload.SpecByName(pick.dataset)
		if err != nil {
			panic(fmt.Sprintf("scenario: built-in mix references %s: %v", pick.dataset, err))
		}
		out[i] = scenarioRequest{dataset: pick.dataset, problem: r.IntN(spec.Problems), arrival: at}
	}
	return out
}

func singleDataset(name string) []mixEntry {
	return []mixEntry{{name, 1}}
}

func buildSteady(p scenarioParams) scenarioSpec {
	p = p.withDefaults(18)
	r := rng.New(p.seed).Child("scenario/steady")
	arrivals := workload.UniformArrivals(p.requests, 2.0)
	return scenarioSpec{
		requests: mixProblems(arrivals, singleDataset("MATH500"), r.Child("mix")),
		serve:    ServeConfig{Policy: "fcfs"},
		cluster: ClusterConfig{
			Devices:    defaultFleet(p.seed),
			Router:     "rr",
			Seed:       p.seed,
			SLOLatency: 120,
		},
	}
}

func buildDiurnal(p scenarioParams) scenarioSpec {
	p = p.withDefaults(24)
	r := rng.New(p.seed).Child("scenario/diurnal")
	arrivals := workload.SinusoidalArrivals(p.requests, 0.5, 0.8, 60, r.Child("arrivals"))
	mix := []mixEntry{{"MATH500", 0.7}, {"AMC23", 0.3}}
	return scenarioSpec{
		requests: mixProblems(arrivals, mix, r.Child("mix")),
		serve:    ServeConfig{Policy: "fcfs"},
		cluster: ClusterConfig{
			Devices:    defaultFleet(p.seed),
			Router:     "least-work",
			Seed:       p.seed,
			SLOLatency: 150,
		},
	}
}

func buildFlashCrowd(p scenarioParams) scenarioSpec {
	p = p.withDefaults(24)
	r := rng.New(p.seed).Child("scenario/flash-crowd")
	arrivals := workload.FlashCrowdArrivals(p.requests, 0.15, 20, 12, 8, r.Child("arrivals"))
	devices := defaultFleet(p.seed)
	for i := range devices {
		devices[i].MaxInFlight = 3
	}
	return scenarioSpec{
		requests: mixProblems(arrivals, singleDataset("MATH500"), r.Child("mix")),
		serve:    ServeConfig{Policy: "fcfs", MaxInFlight: 6},
		cluster: ClusterConfig{
			Devices:    devices,
			Router:     "jsq",
			Seed:       p.seed,
			SLOLatency: 90,
		},
	}
}

func buildHeavyTail(p scenarioParams) scenarioSpec {
	p = p.withDefaults(16)
	r := rng.New(p.seed).Child("scenario/heavy-tail")
	arrivals := workload.PoissonArrivals(p.requests, 0.35, r.Child("arrivals"))
	mix := []mixEntry{{"AIME24", 0.7}, {"MATH500", 0.3}}
	return scenarioSpec{
		requests: mixProblems(arrivals, mix, r.Child("mix")),
		serve:    ServeConfig{Policy: "sjf"},
		cluster: ClusterConfig{
			Devices:    defaultFleet(p.seed),
			Router:     "least-work",
			Seed:       p.seed,
			SLOLatency: 240,
		},
	}
}

func buildTenantMix(p scenarioParams) scenarioSpec {
	p = p.withDefaults(24)
	r := rng.New(p.seed).Child("scenario/tenant-mix")
	arrivals := workload.PoissonArrivals(p.requests, 0.5, r.Child("arrivals"))
	mix := []mixEntry{{"MATH500", 0.5}, {"AMC23", 0.3}, {"HumanEval", 0.2}}
	reqs := mixProblems(arrivals, mix, r.Child("mix"))
	for i := range reqs {
		switch reqs[i].dataset {
		case "AMC23":
			// Interactive tenant: high priority, tight SLO deadline.
			reqs[i].priority = 2
			reqs[i].deadline = reqs[i].arrival + 45
		case "HumanEval":
			// Code tenant: mid priority, loose deadline.
			reqs[i].priority = 1
			reqs[i].deadline = reqs[i].arrival + 120
		}
	}
	return scenarioSpec{
		requests: reqs,
		serve:    ServeConfig{Policy: "priority"},
		cluster: ClusterConfig{
			Devices: []DeviceSpec{
				{Config: Config{GPU: "RTX 4090", Algorithm: "Beam Search", NumBeams: 8, Seed: p.seed + 1}, Policy: "priority"},
				{Config: Config{GPU: "RTX 4070 Ti", Algorithm: "Best-of-N", NumBeams: 8, Seed: p.seed + 2}, Policy: "deadline"},
				{Config: Config{GPU: "RTX 3070 Ti", Algorithm: "DVTS", NumBeams: 8, Seed: p.seed + 3}, Policy: "fcfs"},
			},
			Router:     "prefix",
			Seed:       p.seed,
			SLOLatency: 120,
		},
	}
}

func buildFleetChurn(p scenarioParams) scenarioSpec {
	p = p.withDefaults(24)
	r := rng.New(p.seed).Child("scenario/fleet-churn")
	arrivals := workload.PoissonArrivals(p.requests, 0.5, r.Child("arrivals"))
	devices := []DeviceSpec{
		beams8("RTX 4090", p.seed+1),
		beams8("RTX 4090", p.seed+2),
		beams8("RTX 4070 Ti", p.seed+3),
		beams8("RTX 3070 Ti", p.seed+4),
	}
	devices[1].Slowdown = 3
	devices[2].FailAt = 40
	devices[3].FailAt = 80
	return scenarioSpec{
		requests: mixProblems(arrivals, singleDataset("MATH500"), r.Child("mix")),
		serve:    ServeConfig{Policy: "fcfs"},
		cluster: ClusterConfig{
			Devices:    devices,
			Router:     "least-work",
			Seed:       p.seed,
			SLOLatency: 180,
		},
	}
}

func buildBurstStorm(p scenarioParams) scenarioSpec {
	p = p.withDefaults(24)
	r := rng.New(p.seed).Child("scenario/burst-storm")
	arrivals := workload.BurstArrivals(p.requests, 6, 30)
	reqs := mixProblems(arrivals, singleDataset("AMC23"), r.Child("mix"))
	for i := range reqs {
		reqs[i].deadline = reqs[i].arrival + 60
	}
	devices := defaultFleet(p.seed)
	for i := range devices {
		devices[i].Policy = "deadline"
		devices[i].MaxInFlight = 4
	}
	return scenarioSpec{
		requests: reqs,
		serve:    ServeConfig{Policy: "deadline", MaxInFlight: 8},
		cluster: ClusterConfig{
			Devices:    devices,
			Router:     "p2c",
			Seed:       p.seed,
			SLOLatency: 90,
		},
	}
}

// --- elastic (controller-driven) scenarios ---

func buildAutoscaleDiurnal(p scenarioParams) scenarioSpec {
	p = p.withDefaults(30)
	r := rng.New(p.seed).Child("scenario/autoscale-diurnal")
	// Full-amplitude sinusoid: the rate swings from 0 to 2x base over a
	// 240s cycle — peaks overload the 2-device founding fleet, troughs
	// idle it, exactly the shape scale-to-fit should track.
	arrivals := workload.SinusoidalArrivals(p.requests, 0.09, 1, 240, r.Child("arrivals"))
	return scenarioSpec{
		requests: mixProblems(arrivals, singleDataset("MATH500"), r.Child("mix")),
		serve:    ServeConfig{Policy: "fcfs"},
		cluster: ClusterConfig{
			Devices:    []DeviceSpec{beams8("RTX 4090", p.seed+1), beams8("RTX 4070 Ti", p.seed+2)},
			Router:     "least-work",
			Seed:       p.seed,
			SLOLatency: 300,
			Autoscale: &AutoscaleConfig{
				Policy:      "threshold",
				Interval:    30,
				WarmupDelay: 10,
				WarmPool:    []DeviceSpec{beams8("RTX 4090", p.seed+10), beams8("RTX 4090", p.seed+11)},
			},
		},
	}
}

func buildFlashAbsorb(p scenarioParams) scenarioSpec {
	p = p.withDefaults(28)
	r := rng.New(p.seed).Child("scenario/flash-absorb")
	// A quiet 0.05 req/s baseline with a 90s window at 8x: the spike
	// swamps the 2-device founding fleet until the controller joins warm
	// capacity, then the tail under-loads it back down.
	arrivals := workload.FlashCrowdArrivals(p.requests, 0.05, 60, 90, 8, r.Child("arrivals"))
	mix := []mixEntry{{"MATH500", 0.8}, {"AMC23", 0.2}}
	return scenarioSpec{
		requests: mixProblems(arrivals, mix, r.Child("mix")),
		serve:    ServeConfig{Policy: "fcfs"},
		cluster: ClusterConfig{
			Devices:    []DeviceSpec{beams8("RTX 4090", p.seed+1), beams8("RTX 3070 Ti", p.seed+2)},
			Router:     "jsq",
			Seed:       p.seed,
			SLOLatency: 240,
			Autoscale: &AutoscaleConfig{
				Policy:      "pid",
				Interval:    15,
				WarmupDelay: 8,
				WarmPool:    []DeviceSpec{beams8("RTX 4090", p.seed+10), beams8("RTX 4070 Ti", p.seed+11)},
			},
		},
	}
}

func buildBudgetStorm(p scenarioParams) scenarioSpec {
	p = p.withDefaults(24)
	r := rng.New(p.seed).Child("scenario/budget-storm")
	// Synchronized bursts of 8 against a fixed 3-device fleet: no warm
	// pool — the only lever is the vertical one, degrading per-request
	// search width while the storm's backlog drains.
	arrivals := workload.BurstArrivals(p.requests, 8, 45)
	return scenarioSpec{
		requests: mixProblems(arrivals, singleDataset("MATH500"), r.Child("mix")),
		serve:    ServeConfig{Policy: "sjf"},
		cluster: ClusterConfig{
			Devices:    defaultFleet(p.seed),
			Router:     "least-work",
			Seed:       p.seed,
			SLOLatency: 150,
			Autoscale:  &AutoscaleConfig{Policy: "budget", Interval: 10, MaxTier: 2},
		},
	}
}

// --- KV memory-plane scenarios ---

// buildCacheThrash stresses capacity eviction: a Poisson stream cycles
// over a moderate pool of few-shot prompts (each ~4K tokens, ~110 MiB of
// KV state) across three tenant datasets, while each device's KV plane
// holds only a handful of prompt prefixes plus decode state. Repeats hit
// only if the prefix survived since its last use, so routing that
// concentrates a prompt's repeats on one device (cache-aware) keeps each
// plane's working set small enough that prefixes survive between
// repeats; routing that scatters them asks every plane to hold every
// prompt and thrashes.
func buildCacheThrash(p scenarioParams) scenarioSpec {
	p = p.withDefaults(36)
	r := rng.New(p.seed).Child("scenario/cache-thrash")
	arrivals := workload.PoissonArrivals(p.requests, 0.3, r.Child("arrivals"))
	datasets := []string{"MATH500-fewshot", "AMC23-fewshot", "AIME24-fewshot"}
	mx := r.Child("mix")
	reqs := make([]scenarioRequest, len(arrivals))
	for i, at := range arrivals {
		// 3 tenants x 6 problems = 18 distinct prompts over a 36-request
		// default stream: every prompt repeats, but the full pool is ~2 GiB
		// of prefix state — far more than any one device's plane can hold.
		reqs[i] = scenarioRequest{
			dataset: datasets[mx.IntN(len(datasets))],
			problem: mx.IntN(6),
			arrival: at,
		}
	}
	devices := defaultFleet(p.seed)
	for i := range devices {
		devices[i].KVPlaneBytes = 512 << 20
	}
	return scenarioSpec{
		requests: reqs,
		serve:    ServeConfig{Policy: "fcfs"},
		cluster: ClusterConfig{
			Devices:    devices,
			Router:     "cache-aware",
			Seed:       p.seed,
			SLOLatency: 180,
		},
	}
}

// buildSharedPrefixStorm is the memory plane's best case: synchronized
// bursts where every request shares one of three hot few-shot prompts.
// With prefix-affinity routing each prompt's repeats land where its
// prefix is resident and the prefill is served from cache; the generous
// plane capacity means eviction never steals the hot set.
func buildSharedPrefixStorm(p scenarioParams) scenarioSpec {
	p = p.withDefaults(30)
	r := rng.New(p.seed).Child("scenario/shared-prefix-storm")
	arrivals := workload.BurstArrivals(p.requests, 6, 25)
	mx := r.Child("mix")
	reqs := make([]scenarioRequest, len(arrivals))
	for i, at := range arrivals {
		reqs[i] = scenarioRequest{dataset: "AMC23-fewshot", problem: mx.IntN(3), arrival: at}
	}
	devices := defaultFleet(p.seed)
	for i := range devices {
		devices[i].KVPlaneBytes = 1 << 30
	}
	return scenarioSpec{
		requests: reqs,
		serve:    ServeConfig{Policy: "fcfs"},
		cluster: ClusterConfig{
			Devices:    devices,
			Router:     "prefix",
			Seed:       p.seed,
			SLOLatency: 120,
		},
	}
}

// --- test-time-compute strategy scenarios ---

// buildFirstFinishMix is the first-finish strategy's home turf: an
// AIME-dominated mix whose heavy-tailed service demand comes almost
// entirely from beams that keep searching after the first chain has
// already converged. Returning on the first finished chain cuts decode
// tokens and the latency tail without touching the answer the full beam
// would have selected first.
func buildFirstFinishMix(p scenarioParams) scenarioSpec {
	p = p.withDefaults(16)
	r := rng.New(p.seed).Child("scenario/first-finish-mix")
	arrivals := workload.PoissonArrivals(p.requests, 0.3, r.Child("arrivals"))
	mix := []mixEntry{{"AIME24", 0.7}, {"MATH500", 0.3}}
	return scenarioSpec{
		requests: mixProblems(arrivals, mix, r.Child("mix")),
		serve:    ServeConfig{Policy: "fcfs"},
		cluster: ClusterConfig{
			Devices:    defaultFleet(p.seed),
			Router:     "rr",
			Seed:       p.seed,
			SLOLatency: 240,
			Strategy:   "first-finish",
		},
	}
}

// buildHedgedTail is the hedged strategy's home turf: a quiet stream on
// a fleet with one 8x straggler. Round-robin routing lands a third of
// the requests on the slow device; hedging replicates each arrival to a
// second device, takes whichever copy finishes first, and cancels the
// loser — so a straggler-routed request costs only the fast twin's
// latency, collapsing the tail for double the (otherwise idle) compute.
func buildHedgedTail(p scenarioParams) scenarioSpec {
	p = p.withDefaults(15)
	r := rng.New(p.seed).Child("scenario/hedged-tail")
	arrivals := workload.PoissonArrivals(p.requests, 0.05, r.Child("arrivals"))
	devices := []DeviceSpec{
		beams8("RTX 4090", p.seed+1),
		beams8("RTX 4090", p.seed+2),
		beams8("RTX 4070 Ti", p.seed+3),
	}
	devices[1].Slowdown = 8
	return scenarioSpec{
		requests: mixProblems(arrivals, singleDataset("MATH500"), r.Child("mix")),
		serve:    ServeConfig{Policy: "fcfs"},
		cluster: ClusterConfig{
			Devices:    devices,
			Router:     "rr",
			Seed:       p.seed,
			SLOLatency: 240,
			Strategy:   "hedged",
		},
	}
}
