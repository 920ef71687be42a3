// Package trace holds the canonical record/replay format of served runs
// (RunTrace, replay.go) and the kernel phases the simulated engines
// charge their work to.
//
// A Phase is the obs.Kind of the kernel span an engine emits: a single
// solve (core.Runner) with an obs.Recorder attached puts one span per
// kernel interval on the recorder's device-0 track, and the paper's
// Nsight-style utilization plots (Fig 4, Fig 17 left) are read from those
// spans.
package trace

import "fasttts/internal/obs"

// Phase labels what the device was doing during a kernel interval.
type Phase = obs.Kind

const (
	PhaseGenerate  Phase = obs.KindGenerate
	PhaseVerify    Phase = obs.KindVerify
	PhaseRecompute Phase = obs.KindRecompute
	PhaseTransfer  Phase = obs.KindTransfer
)
