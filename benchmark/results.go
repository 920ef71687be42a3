package main

// One shape for what a pass produced, whichever API produced it, plus the
// correctness checks and the result digest that run over it.

import (
	"fmt"
	"math"

	"fasttts"
	"fasttts/internal/cluster"
	"fasttts/internal/core"
	"fasttts/internal/metrics"
	"fasttts/internal/obs"
)

// outcome is one request's result in API-neutral form.
type outcome struct {
	tag, device, requeues, slices, iterations int
	arrival, start, finish                    float64
	rejected                                  bool
	// useful is the goodput numerator; decoded/spec/retained/recomputed
	// the solver's token accounting (zero when rejected).
	useful, decoded, spec, retained, recomputed int64
	// service is pure device time; gen/ver/transfer its components.
	service, gen, ver, transfer float64
	// cacheHit/cacheMiss/cacheEvicted sum the generator's and verifier's
	// radix-cache counters; only the internal API reports them.
	cacheHit, cacheMiss, cacheEvicted int64
}

// results is a pass's per-request outcomes in result order.
type results interface {
	len() int
	at(i int, o *outcome)
	top1(i int) bool
}

type pubServed []fasttts.ServedResult

func (r pubServed) len() int             { return len(r) }
func (r pubServed) at(i int, o *outcome) { fillPublic(o, &r[i], 0, 0) }
func (r pubServed) top1(i int) bool      { return r[i].Result.Top1Correct() }

type pubFleet []fasttts.FleetResult

func (r pubFleet) len() int { return len(r) }
func (r pubFleet) at(i int, o *outcome) {
	fillPublic(o, &r[i].ServedResult, r[i].Device, r[i].Requeues)
}
func (r pubFleet) top1(i int) bool { return r[i].Result.Top1Correct() }

func fillPublic(o *outcome, sv *fasttts.ServedResult, device, requeues int) {
	*o = outcome{
		tag: sv.Tag, device: device, requeues: requeues, slices: sv.Slices,
		arrival: sv.ArrivalTime, start: sv.StartTime, finish: sv.FinishTime,
		rejected: sv.Rejected, useful: sv.UsefulTokens,
	}
	if res := sv.Result; res != nil {
		o.iterations = res.Iterations
		o.spec, o.retained, o.recomputed = res.SpecTokens, res.SpecRetained, res.RecomputedTokens
		// The public Result does not carry TokensDecoded; UsefulTokens is
		// defined as decoded − spec + retained.
		o.decoded = sv.UsefulTokens + res.SpecTokens - res.SpecRetained
		o.service, o.gen, o.ver, o.transfer = res.Latency, res.GenLatency, res.VerLatency, res.TransferLatency
	}
}

type coreServed []core.ServedResult

func (r coreServed) len() int             { return len(r) }
func (r coreServed) at(i int, o *outcome) { fillCore(o, &r[i], 0, 0) }
func (r coreServed) top1(i int) bool      { return metrics.Top1Correct(r[i].Result.PathResults()) }

type fleetRes []cluster.Result

func (r fleetRes) len() int { return len(r) }
func (r fleetRes) at(i int, o *outcome) {
	fillCore(o, &r[i].ServedResult, r[i].Device, r[i].Requeues)
}
func (r fleetRes) top1(i int) bool { return metrics.Top1Correct(r[i].Result.PathResults()) }

func fillCore(o *outcome, sv *core.ServedResult, device, requeues int) {
	*o = outcome{
		tag: sv.Tag, device: device, requeues: requeues, slices: sv.Slices,
		arrival: sv.Arrival, start: sv.Start, finish: sv.Finish,
		rejected: sv.Rejected, useful: sv.UsefulTokens,
	}
	if res := sv.Result; res != nil {
		o.iterations = res.Iterations
		o.decoded, o.spec, o.retained, o.recomputed = res.TokensDecoded, res.SpecTokens, res.SpecRetained, res.RecomputedTokens
		o.service, o.gen, o.ver, o.transfer = res.Latency, res.GenTime, res.VerTime, res.TransferTime
		o.cacheHit = res.GenCache.HitTokens + res.VerCache.HitTokens
		o.cacheMiss = res.GenCache.MissTokens + res.VerCache.MissTokens
		o.cacheEvicted = res.GenCache.EvictedTokens + res.VerCache.EvictedTokens
	}
}

// serveStats is the latency/goodput aggregate the simulator reported.
type serveStats struct {
	served, rejected, nonFinite int
	makespan, goodput           float64
	p50, p95, p99, slo          float64
}

func serveStatsOf(st fasttts.ServeStats) serveStats {
	return serveStats{
		served: st.Served, rejected: st.Rejected, nonFinite: st.NonFinite,
		makespan: st.Makespan, goodput: st.Goodput,
		p50: st.P50Latency, p95: st.P95Latency, p99: st.P99Latency, slo: st.SLOAttainment,
	}
}

func internalServeStats(st metrics.ServeStats) serveStats {
	return serveStats{
		served: st.Served, rejected: st.Rejected, nonFinite: st.NonFinite,
		makespan: st.Makespan, goodput: st.Goodput,
		p50: st.P50Latency, p95: st.P95Latency, p99: st.P99Latency, slo: st.SLOAttainment,
	}
}

// deviceStats is one fleet member's share of fleetStats.
type deviceStats struct {
	utilization, occupancy   float64
	cacheUsed, cacheCapacity int64
}

// fleetStats is the fleet-only part of the simulator's report.
type fleetStats struct {
	devices                       []deviceStats
	imbalanceCV, prefixHitRate    float64
	cacheHitRate, reprefill       float64
	cacheEvicted                  int64
	requeues                      int
	ticks, scaleUps, scaleDowns   int
	attribution                   *metrics.AttributionStats
	utilizationMean, occupancyAvg float64
}

func (fs *fleetStats) finish() *fleetStats {
	for _, d := range fs.devices {
		fs.utilizationMean += d.utilization
		fs.occupancyAvg += d.occupancy
	}
	if n := float64(len(fs.devices)); n > 0 {
		fs.utilizationMean /= n
		fs.occupancyAvg /= n
	}
	return fs
}

func publicFleetStats(st fasttts.FleetStats) *fleetStats {
	fs := &fleetStats{
		imbalanceCV: st.ImbalanceCV, prefixHitRate: st.PrefixHitRate,
		cacheHitRate: st.CacheHitRate, reprefill: st.ReprefillSeconds,
		cacheEvicted: st.CacheEvictedTokens, requeues: st.Requeues,
	}
	for _, d := range st.PerDevice {
		fs.devices = append(fs.devices, deviceStats{
			utilization: d.Utilization, occupancy: d.CacheOccupancy,
			cacheUsed: d.CacheUsedTokens, cacheCapacity: d.CacheCapacityTokens,
		})
	}
	if c := st.Control; c != nil {
		fs.ticks, fs.scaleUps, fs.scaleDowns = c.Ticks, c.ScaleUps, c.ScaleDowns
	}
	return fs.finish()
}

func internalFleetStats(st metrics.FleetStats) *fleetStats {
	fs := &fleetStats{
		imbalanceCV: st.ImbalanceCV, prefixHitRate: st.PrefixHitRate,
		cacheHitRate: st.CacheHitRate, reprefill: st.ReprefillSeconds,
		cacheEvicted: st.CacheEvictedTokens, requeues: st.Requeues,
		attribution: st.Attribution,
	}
	for _, d := range st.Devices {
		fs.devices = append(fs.devices, deviceStats{
			utilization: d.Utilization, occupancy: d.CacheOccupancy,
			cacheUsed: d.CacheUsedTokens, cacheCapacity: d.CacheCapacityTokens,
		})
	}
	if c := st.Control; c != nil {
		fs.ticks, fs.scaleUps, fs.scaleDowns = c.Ticks, c.ScaleUps, c.ScaleDowns
	}
	return fs.finish()
}

// passOut is everything one pass produced.
type passOut struct {
	res   results
	stats serveStats
	fleet *fleetStats // nil on the single-server workload
	// spans and attrs are the recorder's output (fleet-observed only).
	spans []obs.Span
	attrs []obs.RequestAttribution
	// keep pins the raw outcome so the live-heap reading counts it.
	keep any
}

// digest folds every request outcome and the reported aggregates into
// one FNV-1a hash. Two passes over the same inputs must agree on it bit
// for bit; it allocates nothing, so it can run between timed passes.
func (p *passOut) digest() uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	var o outcome
	for i, n := 0, p.res.len(); i < n; i++ {
		p.res.at(i, &o)
		mix(uint64(o.tag))
		mix(uint64(int64(o.device)))
		mix(uint64(o.requeues))
		mix(uint64(o.slices))
		mix(math.Float64bits(o.arrival))
		mix(math.Float64bits(o.start))
		mix(math.Float64bits(o.finish))
		mix(uint64(o.useful))
		mix(uint64(o.spec))
		mix(math.Float64bits(o.service))
		if o.rejected {
			mix(1)
		}
	}
	st := p.stats
	mix(uint64(st.served))
	mix(uint64(st.rejected))
	for _, f := range []float64{st.makespan, st.goodput, st.p50, st.p95, st.p99, st.slo} {
		mix(math.Float64bits(f))
	}
	return h
}

// simMetrics are the simulated-side end-to-end metrics of one pass.
type simMetrics struct {
	sent, served, shed                         int
	goodput, p50, p95, p99, slo, top1, servedF float64
}

func (p *passOut) simMetrics(sent int) simMetrics {
	m := simMetrics{
		sent: sent, served: p.stats.served, shed: sent - p.stats.served,
		goodput: p.stats.goodput, p50: p.stats.p50, p95: p.stats.p95, p99: p.stats.p99, slo: p.stats.slo,
		servedF: float64(p.stats.served) / float64(sent),
	}
	var o outcome
	correct := 0
	for i, n := 0, p.res.len(); i < n; i++ {
		p.res.at(i, &o)
		if !o.rejected && p.res.top1(i) {
			correct++
		}
	}
	if m.served > 0 {
		m.top1 = float64(correct) / float64(m.served)
	}
	return m
}

// check verifies the invariants every pass must satisfy, whatever the
// simulator's behaviour is at this commit. It names the first failure.
func (p *passOut) check(sent int) error {
	n := p.res.len()
	if n != sent {
		return fmt.Errorf("outcomes: %d results for %d requests sent", n, sent)
	}
	seen := make([]bool, sent)
	served, failed := 0, 0
	var o outcome
	for i := 0; i < n; i++ {
		p.res.at(i, &o)
		if o.tag < 0 || o.tag >= sent {
			return fmt.Errorf("tags: result %d carries tag %d outside [0,%d)", i, o.tag, sent)
		}
		if seen[o.tag] {
			return fmt.Errorf("tags: tag %d has two outcomes", o.tag)
		}
		seen[o.tag] = true
		if o.rejected {
			failed++
			continue
		}
		served++
		for _, f := range []float64{o.arrival, o.start, o.finish} {
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return fmt.Errorf("times: tag %d has a non-finite timestamp", o.tag)
			}
		}
		if !(o.arrival <= o.start && o.start <= o.finish) {
			return fmt.Errorf("times: tag %d has arrival %v, start %v, finish %v out of order", o.tag, o.arrival, o.start, o.finish)
		}
		// SpecRetained counts adoptions: one speculative token kept by
		// several duplicate beams counts once per beam, so it may exceed
		// SpecTokens and is only checked for sign.
		if o.retained < 0 || o.spec < 0 || o.spec > o.decoded {
			return fmt.Errorf("speculation: tag %d retained %d, speculated %d, decoded %d", o.tag, o.retained, o.spec, o.decoded)
		}
	}
	if served+failed != sent || served != p.stats.served || failed != p.stats.rejected {
		return fmt.Errorf("conservation: %d served + %d failed of %d sent, stats say %d + %d",
			served, failed, sent, p.stats.served, p.stats.rejected)
	}
	if p.stats.nonFinite != 0 {
		return fmt.Errorf("stats: %d non-finite samples", p.stats.nonFinite)
	}
	if served == 0 {
		return fmt.Errorf("conservation: no request was served")
	}
	if p.fleet != nil {
		for i, d := range p.fleet.devices {
			if d.cacheUsed > d.cacheCapacity {
				return fmt.Errorf("memplane: device %d holds %d tokens in a %d-token plane", i, d.cacheUsed, d.cacheCapacity)
			}
		}
	}
	if p.spans != nil {
		if err := obs.Verify(p.spans); err != nil {
			return fmt.Errorf("recorder: %w", err)
		}
		if err := obs.CheckSums(p.attrs); err != nil {
			return fmt.Errorf("attribution: %w", err)
		}
		if len(p.attrs) != served {
			return fmt.Errorf("attribution: %d records for %d served requests", len(p.attrs), served)
		}
		// fleet-observed reports sketch percentiles; they must sit within
		// the sketch's documented error of the exact ones.
		walls := servedWalls(p.res)
		for _, q := range []struct {
			p   float64
			got float64
		}{{50, p.stats.p50}, {95, p.stats.p95}, {99, p.stats.p99}} {
			exact := metrics.Percentile(walls, q.p)
			if e := relErr(q.got, exact); e > metrics.SketchRelErr {
				return fmt.Errorf("sketch: streaming p%.0f %v is %.4f off exact %v (allowed %.4f)", q.p, q.got, e, exact, metrics.SketchRelErr)
			}
		}
	}
	return nil
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// servedWalls lists the wall latencies (Finish − Arrival) of the served
// requests, in result order.
func servedWalls(r results) []float64 {
	var o outcome
	walls := make([]float64, 0, r.len())
	for i := 0; i < r.len(); i++ {
		r.at(i, &o)
		if !o.rejected {
			walls = append(walls, o.finish-o.arrival)
		}
	}
	return walls
}

// meanServiceLatency is the mean device time of the served requests.
func meanServiceLatency(r results) float64 {
	var o outcome
	sum, n := 0.0, 0
	for i := 0; i < r.len(); i++ {
		r.at(i, &o)
		if !o.rejected {
			sum += o.service
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
