package fasttts

import (
	"io"
	"slices"

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
// Straggler + Preemption, exact to within 1 ulp (ComponentSum adds them
// in that order); a straggler or preemption component within the
// virtual clock's float rounding of zero is exactly 0. Tag is the
// request's stream position, Device the fleet index of the winning
// finish, and Arrival, Finish, Wall bound its client-perceived life.
// Queue runs from arrival to the first serving slice (waits on failed
// devices included); Service is nominal solver time; Reprefill the KV
// re-prefill penalty at admission; Straggler the slowdown inflation of
// serving slices; Preemption the serving-device gaps spent on other
// tenants. HedgeWaste (a losing hedge copy's slices) and LostWork (slices
// lost to fail-stops) are device-time side channels overlapping Wall.
// Slices, Preemptions (slices whose speculation probe fired) and Requeues
// count events; Hedged marks requests replicated to a twin device.
type RequestAttribution = obs.RequestAttribution

// Attribution runs the latency-attribution pass over the recorded
// trace: one record per finished request, sorted by tag. Requests that
// never finished (shed, rejected, cancelled) are not attributed. Each
// call returns a fresh slice the caller may edit.
func (r *Recorder) Attribution() []RequestAttribution {
	return slices.Clone(r.rec().Attribution())
}

// AttributionStats sums RequestAttribution over finished requests:
// Requests and Hedged count them; Wall, Queue, Service, Reprefill,
// Straggler, Preemption, HedgeWaste and LostWork sum their seconds;
// Slices, Preemptions and Requeues sum their counts.
type AttributionStats = metrics.AttributionStats

// AttributionSummary aggregates the recorded trace's per-request
// attributions into fleet totals.
func (r *Recorder) AttributionSummary() AttributionStats {
	return obs.Summarize(r.rec().Attribution())
}
