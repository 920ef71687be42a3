package fasttts

import (
	"io"

	"fasttts/internal/metrics"
	"fasttts/internal/obs"
)

// Recorder is the deterministic request-lifecycle span flight recorder.
// Attach one via ServeConfig.Trace, ClusterConfig.Trace, or
// ScenarioOptions.Trace and the serving engines record every request's
// lifecycle — arrival, queueing, admission (with its KV re-prefill
// penalty), each executed device slice, and the closing finish, cancel,
// or fail-stop withdrawal — plus the fleet's control plane: routing
// decisions with their runner-up candidate, hedge twin placements,
// failure requeues, control ticks, joins, and drains.
//
// Tracing is strictly observational: attaching a recorder never
// perturbs scheduling, and runs replay bit-identically with or without
// one (the golden-regression harness enforces this). Traces are
// deterministic too — equal seeds give byte-identical span streams.
//
// A nil *Recorder is valid everywhere and means tracing off (the
// default, which costs the engines nothing). A recorder accumulates
// across runs; call Reset between runs for per-run traces. The merged
// trace and its attribution are computed once and shared by
// WritePerfetto, Verify, Attribution and AttributionSummary until the
// next run records into the recorder or it is reset.
//
// A recorder takes one run at a time. Once that run has returned, its
// read methods (SpanCount, WritePerfetto, Verify, Attribution,
// AttributionSummary) are safe to call from several goroutines; Reset and
// a new run must not overlap them.
type Recorder struct {
	inner *obs.Recorder
}

// NewRecorder returns an empty flight recorder.
func NewRecorder() *Recorder { return &Recorder{inner: obs.NewRecorder()} }

// rec unwraps the internal recorder; nil-safe (nil means tracing off).
func (r *Recorder) rec() *obs.Recorder {
	if r == nil {
		return nil
	}
	return r.inner
}

// SpanCount returns the number of spans recorded so far (0 on nil).
func (r *Recorder) SpanCount() int { return r.rec().SpanCount() }

// Reset drops every recorded span, keeping the recorder attached.
func (r *Recorder) Reset() { r.rec().Reset() }

// WritePerfetto serializes the recorded trace as Chrome trace-event
// JSON, loadable in Perfetto (ui.perfetto.dev) or chrome://tracing:
// one lane per device plus a control-plane lane, virtual seconds mapped
// to trace microseconds. Output bytes are deterministic for a given
// trace.
func (r *Recorder) WritePerfetto(w io.Writer) error {
	return obs.WritePerfetto(w, r.rec().Spans())
}

// Verify checks the recorded stream's lifecycle invariants — every
// admitted request closed exactly once, device slice intervals never
// overlapping, all intervals well-formed — returning nil when they
// hold. A non-nil error indicates an engine instrumentation bug, not a
// workload property.
func (r *Recorder) Verify() error { return obs.Verify(r.rec().Spans()) }

// RequestAttribution decomposes one finished request's wall latency
// into additive components: Wall = Queue + Service + Reprefill +
// Straggler + Preemption, exact to within 1 ulp; a straggler or
// preemption component within the virtual clock's float rounding of zero
// is exactly 0. HedgeWaste and LostWork are device-time side channels
// (work burned by a losing hedge copy, or lost to a fail-stop before
// requeue) that overlap the wall interval rather than extending it.
type RequestAttribution struct {
	// Tag is the request's stream position; Device the fleet index that
	// produced the winning finish.
	Tag    int
	Device int
	// Arrival, Finish, and Wall bound the request's client-perceived
	// life: Wall = Finish - Arrival.
	Arrival, Finish, Wall float64
	// Queue is time from arrival to the first slice on the serving
	// device (waits on failed devices before a requeue included);
	// Service the nominal solver time across serving slices; Reprefill
	// the KV re-prefill penalty paid at admission; Straggler the wall
	// inflation of serving slices over nominal (slowdown factors);
	// Preemption the serving-device gaps between slices spent on other
	// tenants.
	Queue, Service, Reprefill, Straggler, Preemption float64
	// HedgeWaste is slice wall-time burned by the losing hedge copy;
	// LostWork slice wall-time lost to fail-stops before requeue.
	HedgeWaste, LostWork float64
	// Slices counts executed serving slices; Preemptions how many of
	// them had the speculation-preemption probe fire; Requeues how many
	// device failures displaced the request.
	Slices, Preemptions, Requeues int
	// Hedged marks requests that were replicated to a twin device.
	Hedged bool
}

// Attribution runs the latency-attribution pass over the recorded
// trace: one record per finished request, sorted by tag. Requests that
// never finished (shed, rejected, cancelled) are not attributed.
func (r *Recorder) Attribution() []RequestAttribution {
	inner := r.rec().Attribution()
	out := make([]RequestAttribution, len(inner))
	for i, a := range inner {
		out[i] = RequestAttribution{
			Tag: a.Tag, Device: a.Device,
			Arrival: a.Arrival, Finish: a.Finish, Wall: a.Wall,
			Queue: a.Queue, Service: a.Service, Reprefill: a.Reprefill,
			Straggler: a.Straggler, Preemption: a.Preemption,
			HedgeWaste: a.HedgeWaste, LostWork: a.LostWork,
			Slices: a.Slices, Preemptions: a.Preemptions, Requeues: a.Requeues,
			Hedged: a.Hedged,
		}
	}
	return out
}

// AttributionStats rolls per-request latency attributions into fleet
// totals (sums over finished requests; see RequestAttribution for the
// component semantics).
type AttributionStats struct {
	Requests, Hedged int
	Wall, Queue, Service, Reprefill, Straggler,
	Preemption, HedgeWaste, LostWork float64
	Slices, Preemptions, Requeues int
}

// AttributionSummary aggregates the recorded trace's per-request
// attributions into fleet totals.
func (r *Recorder) AttributionSummary() AttributionStats {
	return wrapAttribution(obs.Summarize(r.rec().Attribution()))
}

func wrapAttribution(st metrics.AttributionStats) AttributionStats {
	return AttributionStats{
		Requests: st.Requests, Hedged: st.Hedged,
		Wall: st.Wall, Queue: st.Queue, Service: st.Service,
		Reprefill: st.Reprefill, Straggler: st.Straggler,
		Preemption: st.Preemption, HedgeWaste: st.HedgeWaste,
		LostWork: st.LostWork,
		Slices:   st.Slices, Preemptions: st.Preemptions, Requeues: st.Requeues,
	}
}
