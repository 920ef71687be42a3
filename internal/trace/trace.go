// Package trace records per-kernel time series from the simulated engines:
// compute utilization and batch occupancy over virtual time. It
// regenerates the paper's Nsight-style utilization plots (Fig 4, Fig 17
// left).
//
// A nil *Recorder is valid and records nothing, so hot paths can call it
// unconditionally.
package trace

import "sort"

// Phase labels what the device was doing during a sample.
type Phase string

const (
	PhaseGenerate  Phase = "generate"
	PhaseVerify    Phase = "verify"
	PhaseRecompute Phase = "recompute"
	PhaseTransfer  Phase = "transfer"
)

// Sample is one recorded kernel interval.
type Sample struct {
	Start, End float64
	Phase      Phase
	Util       float64 // achieved compute utilization in [0,1]
	Batch      int     // sequences in the batch
}

// Recorder accumulates samples.
type Recorder struct {
	Samples []Sample
}

// Record appends a sample. Safe on a nil receiver.
func (r *Recorder) Record(s Sample) {
	if r == nil {
		return
	}
	r.Samples = append(r.Samples, s)
}

// Reset drops all samples. Safe on a nil receiver.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.Samples = r.Samples[:0]
}

// PhaseTime returns the total recorded time spent in the given phase.
func (r *Recorder) PhaseTime(p Phase) float64 {
	if r == nil {
		return 0
	}
	total := 0.0
	for _, s := range r.Samples {
		if s.Phase == p {
			total += s.End - s.Start
		}
	}
	return total
}

// Span returns the [min Start, max End] of all samples.
func (r *Recorder) Span() (start, end float64) {
	if r == nil || len(r.Samples) == 0 {
		return 0, 0
	}
	start, end = r.Samples[0].Start, r.Samples[0].End
	for _, s := range r.Samples {
		if s.Start < start {
			start = s.Start
		}
		if s.End > end {
			end = s.End
		}
	}
	return start, end
}

// Point is one resampled time-series point.
type Point struct {
	Time float64
	Util float64
}

// UtilSeries resamples utilization onto a fixed dt grid (time-weighted
// average within each bin; gaps count as zero utilization), optionally
// filtered to a single phase ("" = all phases). This mirrors how Nsight
// downsamples tensor-core activity for Fig 4.
func (r *Recorder) UtilSeries(dt float64, phase Phase) []Point {
	if r == nil || len(r.Samples) == 0 || dt <= 0 {
		return nil
	}
	start, end := r.Span()
	nBins := int((end-start)/dt) + 1
	busy := make([]float64, nBins) // Σ util·overlap per bin
	samples := append([]Sample(nil), r.Samples...)
	sort.Slice(samples, func(i, j int) bool { return samples[i].Start < samples[j].Start })
	for _, s := range samples {
		if phase != "" && s.Phase != phase {
			continue
		}
		b0 := int((s.Start - start) / dt)
		b1 := int((s.End - start) / dt)
		for b := b0; b <= b1 && b < nBins; b++ {
			lo := start + float64(b)*dt
			hi := lo + dt
			ov := overlap(s.Start, s.End, lo, hi)
			if ov > 0 {
				busy[b] += s.Util * ov
			}
		}
	}
	out := make([]Point, nBins)
	for b := range out {
		out[b] = Point{Time: start + (float64(b)+0.5)*dt, Util: busy[b] / dt}
		if out[b].Util > 1 {
			out[b].Util = 1
		}
	}
	return out
}

func overlap(a0, a1, b0, b1 float64) float64 {
	lo, hi := a0, a1
	if b0 > lo {
		lo = b0
	}
	if b1 < hi {
		hi = b1
	}
	if hi <= lo {
		return 0
	}
	return hi - lo
}
