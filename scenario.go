package fasttts

import (
	"fmt"

	"fasttts/internal/scenario"
	"fasttts/internal/trace"
)

// ScenarioTarget selects which serving stack a scenario runs against.
type ScenarioTarget string

const (
	// ScenarioServer serves the stream on a single multi-tenant Server
	// built from the scenario's first device deployment.
	ScenarioServer ScenarioTarget = "server"
	// ScenarioCluster serves the stream across the scenario's full
	// heterogeneous fleet (≥ 3 devices in every built-in scenario).
	ScenarioCluster ScenarioTarget = "cluster"
)

// ScenarioInfo describes one named workload scenario.
type ScenarioInfo struct {
	Name        string
	Description string
}

// Scenarios lists the built-in workload scenario catalog (see
// internal/scenario): steady, diurnal, flash-crowd, heavy-tail,
// tenant-mix, fleet-churn, burst-storm, the controller-driven
// autoscale-diurnal, flash-absorb, and budget-storm, the KV
// memory-plane cache-thrash and shared-prefix-storm, and the
// test-time-compute-strategy first-finish-mix and hedged-tail.
func Scenarios() []ScenarioInfo {
	var out []ScenarioInfo
	for _, s := range scenario.All() {
		out = append(out, ScenarioInfo{Name: s.Name, Description: s.Description})
	}
	return out
}

// ScenarioNames lists the scenario names in display order.
func ScenarioNames() []string { return scenario.Names() }

// ScenarioOptions scales a scenario run. The zero value selects the
// server target and the scenario's default stream length and seed.
type ScenarioOptions struct {
	// Target is the serving stack to run against; empty means server.
	Target ScenarioTarget
	// Requests is the stream length; 0 means the scenario default.
	Requests int
	// Seed drives all randomness (arrivals, problem mixes, device engines,
	// router); 0 means the scenario default (42). Equal options give
	// bit-identical runs and therefore bit-identical traces.
	Seed uint64
	// Parallelism selects the cluster target's execution engine, exactly
	// as ClusterConfig.Parallelism: 0 or 1 sequential, >= 2 that many
	// device shards, negative one shard per core. Traces are bit-identical
	// at every setting — the committed goldens replay unchanged — so this
	// only trades wall-clock time on large scenarios. Ignored by the
	// server target.
	Parallelism int
	// Router, when non-empty, overrides the scenario's fleet routing
	// discipline on the cluster target (the cache-plane gate test uses it
	// to compare routers on one stream). Empty keeps the scenario's own
	// router, so goldens are unaffected.
	Router string
	// Strategy, when non-empty, overrides the scenario's test-time-compute
	// strategy on both targets (TestStrategyTailGains uses it to compare
	// strategies on one stream): "full-beam", "first-finish[:k]", "deadline", or
	// "hedged". Empty keeps the scenario's own strategy, so goldens are
	// unaffected.
	Strategy string
	// KVPlaneBytes overrides the per-device KV memory-plane capacity on
	// every scenario device (warm-pool templates included): positive sets
	// that capacity in bytes, negative disables the plane entirely, and 0
	// keeps each device's scenario-defined setting.
	KVPlaneBytes int64
	// Trace, when non-nil, attaches the span flight recorder to the run
	// (either target) for Perfetto export and latency attribution.
	// Tracing never perturbs the run: the TraceJSONL goldens replay
	// byte-identically with or without it.
	Trace *Recorder
}

// ScenarioRun is the outcome of one RunScenario call.
type ScenarioRun struct {
	Name        string
	Description string
	Target      ScenarioTarget
	// Seed is the resolved run seed recorded in the trace.
	Seed uint64
	// Requests is the materialized stream in submission order.
	Requests []Request
	// Served holds per-request results on the server target; Fleet the
	// fleet outcome on the cluster target (exactly one is set).
	Served []ServedResult
	Fleet  *FleetRun
	// Stats is the server-level aggregate of the run (the fleet's merged
	// stream on the cluster target); FleetStats adds the fleet-only
	// aggregates and is non-nil only on the cluster target.
	Stats      ServeStats
	FleetStats *FleetStats
	tr         *trace.RunTrace
}

// TraceJSONL renders the run's canonical record/replay trace: one JSONL
// header, one line of queueing telemetry per request in result order, and
// a trailing aggregate-stats line. The serving stack is deterministic, so
// equal scenarios and options produce bit-identical trace bytes — the
// contract the golden-regression harness (testdata/golden, make golden)
// enforces.
func (r *ScenarioRun) TraceJSONL() ([]byte, error) { return r.tr.EncodeJSONL() }

// RunScenario builds the named workload scenario, serves its
// deterministic request stream on the selected target, and captures the
// full served stream as a replayable trace. See Scenarios for the
// catalog.
func RunScenario(name string, opts ScenarioOptions) (*ScenarioRun, error) {
	sc, err := scenario.ByName(name)
	if err != nil {
		return nil, err
	}
	spec := sc.Build(scenario.Params{Requests: opts.Requests, Seed: opts.Seed})
	if opts.Router != "" {
		spec.Router = opts.Router
	}
	if opts.Strategy != "" {
		spec.Strategy = opts.Strategy
	}
	if opts.KVPlaneBytes != 0 {
		capacity := opts.KVPlaneBytes
		if capacity < 0 {
			capacity = 0
		}
		for i := range spec.Devices {
			spec.Devices[i].KVPlaneBytes = capacity
		}
		if spec.Autoscale != nil {
			for i := range spec.Autoscale.Warm {
				spec.Autoscale.Warm[i].KVPlaneBytes = capacity
			}
		}
	}
	target := opts.Target
	if target == "" {
		target = ScenarioServer
	}
	reqs, err := materializeRequests(spec)
	if err != nil {
		return nil, err
	}
	run := &ScenarioRun{
		Name:        sc.Name,
		Description: sc.Description,
		Target:      target,
		Seed:        spec.Seed,
		Requests:    reqs,
	}
	switch target {
	case ScenarioServer:
		cfg := deviceConfig(spec.Devices[0])
		cfg.Strategy = spec.Strategy
		srv, err := NewServerWith(ServeConfig{
			Config:      cfg,
			Policy:      spec.Serve.Policy,
			MaxInFlight: spec.Serve.MaxInFlight,
			SLOLatency:  spec.SLOLatency,
			Trace:       opts.Trace,
		})
		if err != nil {
			return nil, err
		}
		served, err := srv.Run(reqs)
		if err != nil {
			return nil, err
		}
		run.Served = served
		run.Stats = srv.Stats(served)
		run.tr = serverTrace(spec, served, run.Stats)
	case ScenarioCluster:
		devices := make([]DeviceSpec, len(spec.Devices))
		for i, d := range spec.Devices {
			devices[i] = DeviceSpec{
				Config:      deviceConfig(d),
				Policy:      d.Policy,
				MaxInFlight: d.MaxInFlight,
				Slowdown:    d.Slowdown,
				FailAt:      d.FailAt,
			}
		}
		var auto *AutoscaleConfig
		if a := spec.Autoscale; a != nil {
			warm := make([]DeviceSpec, len(a.Warm))
			for i, d := range a.Warm {
				warm[i] = DeviceSpec{
					Config:      deviceConfig(d),
					Policy:      d.Policy,
					MaxInFlight: d.MaxInFlight,
					Slowdown:    d.Slowdown,
				}
			}
			auto = &AutoscaleConfig{
				Policy:      a.Controller,
				Interval:    a.Interval,
				WarmPool:    warm,
				WarmupDelay: a.WarmupDelay,
				MinDevices:  a.MinDevices,
				MaxDevices:  a.MaxDevices,
				MaxTier:     a.MaxTier,
			}
		}
		cl, err := NewCluster(ClusterConfig{
			Devices:     devices,
			Router:      spec.Router,
			Seed:        spec.Seed,
			SLOLatency:  spec.SLOLatency,
			Strategy:    spec.Strategy,
			Autoscale:   auto,
			Parallelism: opts.Parallelism,
			Trace:       opts.Trace,
		})
		if err != nil {
			return nil, err
		}
		fr, err := cl.Run(reqs)
		if err != nil {
			return nil, err
		}
		st := fr.Stats()
		run.Fleet = fr
		run.Stats = st.ServeStats
		run.FleetStats = &st
		run.tr = clusterTrace(spec, fr, st)
	default:
		return nil, fmt.Errorf("fasttts: unknown scenario target %q (want %q or %q)",
			target, ScenarioServer, ScenarioCluster)
	}
	return run, nil
}

// materializeRequests resolves a scenario spec's problem references
// against seed-pinned datasets.
func materializeRequests(spec scenario.Spec) ([]Request, error) {
	datasets := map[string]*Dataset{}
	out := make([]Request, len(spec.Requests))
	for i, rq := range spec.Requests {
		ds, ok := datasets[rq.Dataset]
		if !ok {
			var err error
			ds, err = LoadDataset(rq.Dataset, spec.Seed)
			if err != nil {
				return nil, fmt.Errorf("fasttts: scenario %s: %w", spec.Name, err)
			}
			datasets[rq.Dataset] = ds
		}
		if rq.Problem < 0 || rq.Problem >= len(ds.Problems) {
			return nil, fmt.Errorf("fasttts: scenario %s: request %d references %s problem %d of %d",
				spec.Name, i, rq.Dataset, rq.Problem, len(ds.Problems))
		}
		out[i] = Request{
			Problem:     ds.Problems[rq.Problem],
			ArrivalTime: rq.Arrival,
			Priority:    rq.Priority,
			Deadline:    rq.Deadline,
		}
	}
	return out, nil
}

// deviceConfig materializes one scenario device deployment.
func deviceConfig(d scenario.Device) Config {
	return Config{
		GPU:          d.GPU,
		Algorithm:    d.Algorithm,
		NumBeams:     d.NumBeams,
		Seed:         d.Seed,
		KVPlaneBytes: d.KVPlaneBytes,
	}
}

func serverTrace(spec scenario.Spec, served []ServedResult, st ServeStats) *trace.RunTrace {
	tr := newRunTrace(spec, ScenarioServer)
	for _, sv := range served {
		tr.Records = append(tr.Records, traceRecord(sv, 0, 0))
	}
	fillServeStats(&tr.Stats, st)
	return tr
}

func clusterTrace(spec scenario.Spec, fr *FleetRun, st FleetStats) *trace.RunTrace {
	tr := newRunTrace(spec, ScenarioCluster)
	for _, r := range fr.Results {
		tr.Records = append(tr.Records, traceRecord(r.ServedResult, r.Device, r.Requeues))
	}
	fillServeStats(&tr.Stats, st.ServeStats)
	tr.Stats.ImbalanceCV = st.ImbalanceCV
	tr.Stats.Requeues = st.Requeues
	tr.Stats.PrefixHitRate = st.PrefixHitRate
	tr.Stats.FailedDevices = st.FailedDevices
	return tr
}

func newRunTrace(spec scenario.Spec, target ScenarioTarget) *trace.RunTrace {
	return &trace.RunTrace{
		Scenario: spec.Name,
		Target:   string(target),
		Seed:     spec.Seed,
		Requests: len(spec.Requests),
	}
}

func traceRecord(sv ServedResult, device, requeues int) trace.Record {
	return trace.Record{
		ID:       sv.Tag,
		Arrival:  sv.ArrivalTime,
		Start:    sv.StartTime,
		Finish:   sv.FinishTime,
		Queue:    sv.QueueDelay,
		Wall:     sv.WallLatency,
		Slices:   sv.Slices,
		Tokens:   sv.UsefulTokens,
		Rejected: sv.Rejected,
		Device:   device,
		Requeues: requeues,
	}
}

func fillServeStats(dst *trace.RunStats, st ServeStats) {
	dst.Served = st.Served
	dst.Rejected = st.Rejected
	dst.Makespan = st.Makespan
	dst.MeanQueueDelay = st.MeanQueueDelay
	dst.MaxQueueDelay = st.MaxQueueDelay
	dst.MeanLatency = st.MeanLatency
	dst.P50Latency = st.P50Latency
	dst.P95Latency = st.P95Latency
	dst.P99Latency = st.P99Latency
	dst.Goodput = st.Goodput
	dst.SLOAttainment = st.SLOAttainment
}
