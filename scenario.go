package fasttts

import (
	"fmt"

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

// Scenarios lists the built-in workload scenario catalog, in display
// order: steady, diurnal, flash-crowd, heavy-tail, tenant-mix,
// fleet-churn, burst-storm, the controller-driven autoscale-diurnal,
// flash-absorb, and budget-storm, the KV memory-plane cache-thrash and
// shared-prefix-storm, and the test-time-compute-strategy
// first-finish-mix and hedged-tail.
func Scenarios() []ScenarioInfo {
	all := scenarioCatalog()
	out := make([]ScenarioInfo, len(all))
	for i, s := range all {
		out[i] = s.ScenarioInfo
	}
	return out
}

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
	spec, err := buildScenario(name, opts)
	if err != nil {
		return nil, err
	}
	return spec.run(opts.Target)
}

// buildScenario builds the named scenario at the options' stream length
// and seed, with the options' recorder attached to its cluster config.
func buildScenario(name string, opts ScenarioOptions) (scenarioSpec, error) {
	sc, err := scenarioByName(name)
	if err != nil {
		return scenarioSpec{}, err
	}
	spec := sc.build(scenarioParams{requests: opts.Requests, seed: opts.Seed})
	spec.info = sc.ScenarioInfo
	spec.cluster.Trace = opts.Trace
	return spec, nil
}

// run serves the spec's request stream on the target (empty means
// server) and records the served stream as a trace.
func (spec scenarioSpec) run(target ScenarioTarget) (*ScenarioRun, error) {
	cc := &spec.cluster
	if target == "" {
		target = ScenarioServer
	}
	reqs, err := materializeRequests(spec.info.Name, cc.Seed, spec.requests)
	if err != nil {
		return nil, err
	}
	run := &ScenarioRun{
		Name:        spec.info.Name,
		Description: spec.info.Description,
		Target:      target,
		Seed:        cc.Seed,
		Requests:    reqs,
		tr: &trace.RunTrace{
			Scenario: spec.info.Name,
			Target:   string(target),
			Seed:     cc.Seed,
			Requests: len(reqs),
		},
	}
	switch target {
	case ScenarioServer:
		sv := spec.serve
		sv.Config = cc.Devices[0].Config
		sv.Strategy = cc.Strategy
		sv.SLOLatency = cc.SLOLatency
		sv.Trace = cc.Trace
		srv, err := NewServerWith(sv)
		if err != nil {
			return nil, err
		}
		served, err := srv.Run(reqs)
		if err != nil {
			return nil, err
		}
		run.Served = served
		run.Stats = srv.Stats(served)
		for _, r := range served {
			run.tr.Records = append(run.tr.Records, traceRecord(r, 0, 0))
		}
	case ScenarioCluster:
		cl, err := NewCluster(*cc)
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
		for _, r := range fr.Results {
			run.tr.Records = append(run.tr.Records, traceRecord(r.ServedResult, r.Device, r.Requeues))
		}
		run.tr.Stats.ImbalanceCV = st.ImbalanceCV
		run.tr.Stats.Requeues = st.Requeues
		run.tr.Stats.PrefixHitRate = st.PrefixHitRate
		run.tr.Stats.FailedDevices = st.FailedDevices
	default:
		return nil, fmt.Errorf("fasttts: unknown scenario target %q (want %q or %q)",
			target, ScenarioServer, ScenarioCluster)
	}
	fillServeStats(&run.tr.Stats, run.Stats)
	return run, nil
}

// materializeRequests resolves a scenario's problem references against
// datasets pinned to the run seed.
func materializeRequests(name string, seed uint64, refs []scenarioRequest) ([]Request, error) {
	datasets := map[string]*Dataset{}
	out := make([]Request, len(refs))
	for i, rq := range refs {
		ds, ok := datasets[rq.dataset]
		if !ok {
			var err error
			ds, err = LoadDataset(rq.dataset, seed)
			if err != nil {
				return nil, fmt.Errorf("fasttts: scenario %s: %w", name, err)
			}
			datasets[rq.dataset] = ds
		}
		if rq.problem < 0 || rq.problem >= len(ds.Problems) {
			return nil, fmt.Errorf("fasttts: scenario %s: request %d references %s problem %d of %d",
				name, i, rq.dataset, rq.problem, len(ds.Problems))
		}
		out[i] = Request{
			Problem:     ds.Problems[rq.problem],
			ArrivalTime: rq.arrival,
			Priority:    rq.priority,
			Deadline:    rq.deadline,
		}
	}
	return out, nil
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
