package fasttts

import (
	"fmt"
	"math"

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
// only then) for requests shed by admission control. The Results of one
// run share a single allocation, and their Paths share the run's path
// storage, so holding any one of them keeps that storage alive: copy what
// you keep from a large run and drop the rest. Identical solves share
// Paths: a device that serves a problem again at the same width and
// strategy, after an earlier solve of it ran unpreempted, replays that
// solve and hands out its very paths, so edit a copy, not Paths itself.
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

// ServeStats aggregates a served request stream (see Server.Stats):
// counts (Served, Rejected, and NonFinite: served samples dropped from
// every aggregate for NaN or ±Inf telemetry), Makespan (the last finish),
// queue delay StartTime − ArrivalTime (MeanQueueDelay, MaxQueueDelay),
// wall latency FinishTime − ArrivalTime (MeanLatency, P50Latency,
// P95Latency, P99Latency), Goodput (useful tokens per second of
// makespan) and SLOAttainment (the share of all submitted requests
// meeting SLOLatency, rejections counting as misses; 1 with no target).
type ServeStats = metrics.ServeStats

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
	if err := checkSLO(sc.SLOLatency); err != nil {
		return nil, err
	}
	cc, err := buildCoreConfig(sc.Config)
	if err != nil {
		return nil, err
	}
	cc.Obs = sc.Trace.rec()
	pol, err := servePolicy(sc.Policy, sc.MaxInFlight)
	if err != nil {
		return nil, err
	}
	srv, err := core.NewServerWithPolicy(cc, pol)
	if err != nil {
		return nil, err
	}
	return &Server{inner: srv, slo: sc.SLOLatency}, nil
}

// servePolicy builds one device's serving policy: the named discipline,
// behind an admission limit when maxInFlight is positive.
func servePolicy(name string, maxInFlight int) (sched.ServePolicy, error) {
	pol, err := sched.PolicyByName(name)
	if err != nil || maxInFlight <= 0 {
		return pol, err
	}
	return sched.AdmissionLimit{Inner: pol, MaxInFlight: maxInFlight}, nil
}

// checkSLO rejects a NaN or infinite SLOLatency: every comparison with
// NaN is false, so it would silently read as "no target".
func checkSLO(slo float64) error {
	if math.IsNaN(slo) || math.IsInf(slo, 0) {
		return fmt.Errorf("fasttts: SLOLatency must be finite, got %v (0 disables SLO accounting)", slo)
	}
	return nil
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
	return wrapServed(served, func(tag int) *Problem { return reqs[tag].Problem }), nil
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
	return wrapServed(served, func(tag int) *Problem { return probs[tag] }), nil
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
	return acc.Stats()
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

// wrapServed converts a run's served requests, their Results taken from
// one batch; problem maps a request's Tag to the problem it asked.
func wrapServed(served []core.ServedResult, problem func(tag int) *Problem) []ServedResult {
	batch := newResultBatch(len(served), func(i int) bool { return served[i].Result != nil })
	out := make([]ServedResult, len(served))
	for i := range served {
		out[i] = wrapServedResult(&served[i], &batch, problem(served[i].Tag))
	}
	return out
}

// resultBatch holds the public Results of one run's served requests: one
// allocation, sized to their count, handed out front to back.
type resultBatch []Result

// newResultBatch sizes a batch for the served requests among n results,
// served(i) telling whether the i-th has a Result.
func newResultBatch(n int, served func(i int) bool) resultBatch {
	k := 0
	for i := range n {
		if served(i) {
			k++
		}
	}
	return make(resultBatch, k)
}

// wrap converts res, the solution of p, into the batch's next Result; nil
// stays nil.
func (b *resultBatch) wrap(res *core.Result, p *Problem) *Result {
	if res == nil {
		return nil
	}
	out := &(*b)[0]
	*b = (*b)[1:]
	*out = resultOf(res)
	out.Problem = p
	return out
}

// wrapServedResult converts one served request of problem p (shared by
// Server and the fleet results), its Result from batch.
func wrapServedResult(sv *core.ServedResult, batch *resultBatch, p *Problem) ServedResult {
	return ServedResult{
		Result:       batch.wrap(sv.Result, p),
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
