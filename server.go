package fasttts

import (
	"fmt"

	"fasttts/internal/core"
	"fasttts/internal/metrics"
	"fasttts/internal/rng"
	"fasttts/internal/sched"
	"fasttts/internal/workload"
)

// Request is one queued query for a Server.
type Request struct {
	Problem *Problem
	// ArrivalTime is when the request reaches the server, in seconds on
	// the server clock.
	ArrivalTime float64
	// Priority orders requests under the "priority" policy; larger runs
	// first.
	Priority int
	// Deadline is the absolute SLO deadline on the server clock used by
	// the "deadline" policy; 0 means none.
	Deadline float64
}

// ServedResult is a Result plus queueing telemetry. Result is nil (and
// only then) for requests shed by admission control.
type ServedResult struct {
	*Result
	ArrivalTime float64
	StartTime   float64
	FinishTime  float64
	// QueueDelay = StartTime − ArrivalTime. The embedded Result's Latency
	// is pure device (service) time; WallLatency = FinishTime −
	// ArrivalTime additionally includes queueing and slices the device
	// spent on other tenants.
	QueueDelay  float64
	WallLatency float64
	// Slices counts the device slices the request ran in.
	Slices int
	// UsefulTokens is the request's useful generated output (all decoded
	// tokens minus speculative ones, plus speculative tokens adopted by
	// surviving beams); server-level goodput sums this.
	UsefulTokens int64
	// Width is the effective search width the request was served at: the
	// deployment's configured NumBeams unless the elastic control plane's
	// budget governor narrowed it. 0 for rejected requests.
	Width int
	// Rejected marks requests shed by admission control.
	Rejected bool
	// Tag identifies the request across the stream: its position in the
	// slice passed to Run (and the problem's position in RunClosedLoop),
	// carried through unchanged so completion-ordered results can be
	// correlated with their submissions — the identity the trace
	// record/replay harness keys on.
	Tag int
}

// ServeConfig configures the multi-tenant serving engine on top of a
// deployment Config.
type ServeConfig struct {
	Config
	// Policy names the admission/ordering discipline: "fcfs" (default),
	// "sjf" (shortest predicted remaining work, First-Finish style),
	// "priority", or "deadline" (earliest-deadline-first).
	Policy string
	// MaxInFlight, when positive, sheds arrivals beyond this many
	// admitted unfinished requests (they come back Rejected).
	MaxInFlight int
	// SLOLatency is the per-request wall-latency target in seconds used
	// by Stats; 0 disables SLO accounting.
	SLOLatency float64
	// Trace, when non-nil, attaches the span flight recorder: the engine
	// records every request's full lifecycle for Perfetto export and
	// latency attribution without perturbing the run. See Recorder.
	Trace *Recorder
}

// ServeStats aggregates a served request stream (see Server.Stats).
type ServeStats struct {
	Served, Rejected int
	// Makespan is the finish time of the last served request.
	Makespan float64
	// Queue delay is StartTime − ArrivalTime; latency here is wall
	// latency, FinishTime − ArrivalTime.
	MeanQueueDelay, MaxQueueDelay                   float64
	MeanLatency, P50Latency, P95Latency, P99Latency float64
	// Goodput is useful generated tokens per second of makespan.
	Goodput float64
	// SLOAttainment is the fraction of all submitted requests meeting
	// SLOLatency (rejected requests count as misses); 1 when no target
	// is set.
	SLOAttainment float64
	// NonFinite counts served samples excluded from every aggregate
	// because their telemetry was NaN or ±Inf (0 on healthy streams).
	NonFinite int
}

// Server serves a stream of TTS requests with the multi-tenant serving
// engine: an event-driven virtual clock time-slices the device between
// admitted requests at search-iteration granularity, and the paper's
// two-phase preemptible scheduler (§4.1.2) governs speculation — it runs
// only while no other request waits and is preempted the moment one
// arrives. Under the default FCFS policy the engine reproduces the
// sequential scheduler of the paper exactly.
type Server struct {
	inner *core.Server
	slo   float64
}

// NewServer builds an FCFS server for the given deployment configuration.
func NewServer(c Config) (*Server, error) {
	return NewServerWith(ServeConfig{Config: c})
}

// NewServerWith builds a server with an explicit serving configuration.
func NewServerWith(sc ServeConfig) (*Server, error) {
	cc, err := buildCoreConfig(sc.Config)
	if err != nil {
		return nil, err
	}
	cc.Obs = sc.Trace.rec()
	pol, err := sched.PolicyByName(sc.Policy)
	if err != nil {
		return nil, err
	}
	if sc.MaxInFlight > 0 {
		pol = sched.AdmissionLimit{Inner: pol, MaxInFlight: sc.MaxInFlight}
	}
	srv, err := core.NewServerWithPolicy(cc, pol)
	if err != nil {
		return nil, err
	}
	return &Server{inner: srv, slo: sc.SLOLatency}, nil
}

// Run serves an open-loop request stream and returns per-request results
// in completion order (rejected requests appear at their rejection time).
func (s *Server) Run(reqs []Request) ([]ServedResult, error) {
	inner, err := coreRequests(reqs)
	if err != nil {
		return nil, err
	}
	served, err := s.inner.Run(inner)
	if err != nil {
		return nil, err
	}
	return wrapServed(served), nil
}

// coreRequests converts a public request stream for the serving engine,
// tagging each request with its index. A request without a problem is an
// error.
func coreRequests(reqs []Request) ([]core.Request, error) {
	inner := make([]core.Request, len(reqs))
	for i, r := range reqs {
		p, err := problemOf(r.Problem, "request", i)
		if err != nil {
			return nil, err
		}
		inner[i] = core.Request{
			Problem:  p,
			Arrival:  r.ArrivalTime,
			Priority: r.Priority,
			Deadline: r.Deadline,
			Tag:      i,
		}
	}
	return inner, nil
}

// problemOf unwraps a problem, rejecting one that LoadDataset did not
// build (nil, or a zero Problem).
func problemOf(p *Problem, kind string, i int) (*workload.Problem, error) {
	if p == nil || p.inner == nil {
		return nil, fmt.Errorf("fasttts: %s %d has no problem (take problems from LoadDataset)", kind, i)
	}
	return p.inner, nil
}

// RunClosedLoop serves the problems under a fixed-concurrency closed
// loop: concurrency clients each keep one request outstanding and issue
// their next request think seconds after the previous one completes.
func (s *Server) RunClosedLoop(probs []*Problem, concurrency int, think float64) ([]ServedResult, error) {
	inner := make([]*workload.Problem, len(probs))
	for i, p := range probs {
		var err error
		if inner[i], err = problemOf(p, "problem", i); err != nil {
			return nil, err
		}
	}
	served, err := s.inner.RunClosedLoop(inner, workload.ClosedLoop{Concurrency: concurrency, Think: think})
	if err != nil {
		return nil, err
	}
	return wrapServed(served), nil
}

// Stats reduces served results to server-level aggregates, applying the
// configured SLOLatency.
func (s *Server) Stats(served []ServedResult) ServeStats {
	acc := metrics.NewServeAccum(metrics.ModeExact, s.slo)
	for _, sv := range served {
		acc.Observe(metrics.ServeSample{
			Arrival: sv.ArrivalTime, Start: sv.StartTime, Finish: sv.FinishTime,
			Tokens: sv.UsefulTokens, Rejected: sv.Rejected,
		})
	}
	return wrapServeStats(acc.Stats())
}

// wrapServeStats converts the internal serve aggregates to the public
// struct (shared by Server.Stats and the fleet stats).
func wrapServeStats(m metrics.ServeStats) ServeStats {
	return ServeStats{
		Served: m.Served, Rejected: m.Rejected,
		Makespan:       m.Makespan,
		MeanQueueDelay: m.MeanQueueDelay, MaxQueueDelay: m.MaxQueueDelay,
		MeanLatency: m.MeanLatency,
		P50Latency:  m.P50Latency, P95Latency: m.P95Latency, P99Latency: m.P99Latency,
		Goodput:       m.Goodput,
		SLOAttainment: m.SLOAttainment,
		NonFinite:     m.NonFinite,
	}
}

// PoissonRequests assigns open-loop Poisson arrival times (mean rate
// requests/second) to the problems, deterministically from the seed.
// It panics if rate is not positive and finite (see
// workload.PoissonArrivals).
func PoissonRequests(probs []*Problem, rate float64, seed uint64) []Request {
	return withArrivals(probs, workload.PoissonArrivals(len(probs), rate, rng.New(seed).Child("arrivals/poisson")))
}

// UniformRequests assigns evenly spaced arrivals to the problems.
func UniformRequests(probs []*Problem, spacing float64) []Request {
	return withArrivals(probs, workload.UniformArrivals(len(probs), spacing))
}

// BurstRequests releases the problems in bursts of `burst` simultaneous
// requests, gap seconds apart — the adversarial arrival pattern for
// admission control.
func BurstRequests(probs []*Problem, burst int, gap float64) []Request {
	return withArrivals(probs, workload.BurstArrivals(len(probs), burst, gap))
}

// SinusoidalRequests assigns arrivals of a nonhomogeneous Poisson
// process whose rate follows a diurnal cycle, λ(t) = base ·
// (1 + amplitude·sin(2πt/period)), deterministically from the seed —
// the workload shape the elastic control plane's scale-to-fit tracks.
// It panics if base or period is not positive and finite (see
// workload.SinusoidalArrivals).
func SinusoidalRequests(probs []*Problem, base, amplitude, period float64, seed uint64) []Request {
	return withArrivals(probs, workload.SinusoidalArrivals(
		len(probs), base, amplitude, period, rng.New(seed).Child("arrivals/sinusoidal")))
}

// FlashCrowdRequests assigns arrivals of a piecewise-rate Poisson
// process: base requests/second everywhere except the flash-crowd
// window [spikeStart, spikeStart+spikeDur), where the rate is
// base·mult. It panics on a non-positive or non-finite base, or a
// negative or non-finite mult (see workload.FlashCrowdArrivals).
func FlashCrowdRequests(probs []*Problem, base, spikeStart, spikeDur, mult float64, seed uint64) []Request {
	return withArrivals(probs, workload.FlashCrowdArrivals(
		len(probs), base, spikeStart, spikeDur, mult, rng.New(seed).Child("arrivals/flash-crowd")))
}

func withArrivals(probs []*Problem, times []float64) []Request {
	out := make([]Request, len(probs))
	for i, p := range probs {
		out[i] = Request{Problem: p, ArrivalTime: times[i]}
	}
	return out
}

func wrapServed(served []core.ServedResult) []ServedResult {
	out := make([]ServedResult, len(served))
	for i, sv := range served {
		out[i] = wrapServedResult(sv)
	}
	return out
}

// wrapServedResult converts one served request (shared by Server and the
// fleet results).
func wrapServedResult(sv core.ServedResult) ServedResult {
	var res *Result
	if sv.Result != nil {
		res = wrapResult(sv.Result)
	}
	return ServedResult{
		Result:       res,
		ArrivalTime:  sv.Arrival,
		StartTime:    sv.Start,
		FinishTime:   sv.Finish,
		QueueDelay:   sv.QueueDelay,
		WallLatency:  sv.WallLatency,
		Slices:       sv.Slices,
		UsefulTokens: sv.UsefulTokens,
		Width:        sv.Width,
		Rejected:     sv.Rejected,
		Tag:          sv.Tag,
	}
}
