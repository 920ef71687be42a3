// Package obs is the deterministic request-lifecycle span flight
// recorder: an allocation-disciplined observability layer the serving
// engines thread lifecycle spans through when — and only when — a
// Recorder is attached. Every emission site in core and cluster is
// nil-checked, so the disabled path (the default) adds zero allocations
// and zero behavioral difference; with a recorder attached, tracing
// observes scheduling but never perturbs it — the committed goldens
// replay byte-identically either way.
//
// The recorder is a set of tracks: one per device (the device's slice
// timeline, admissions, completions, withdrawals) plus one control-plane
// track (routing decisions, requeue hops, hedge placements, control
// ticks, joins, drains). Tracks are single-writer: a device track is
// written only by that device's loop, and the control track only by the
// fleet driver. The merged span stream (Recorder.Spans) is a pure
// function of per-track content, so equal seeds give bit-identical
// traces.
package obs

import (
	"fmt"
	"math"
	"sync"
)

// Kind discriminates span types. Device-track kinds describe one
// request's lifecycle on the device that held it; control-track kinds
// describe fleet-level decisions.
type Kind uint8

const (
	KindNone Kind = iota

	// Device-track kinds.

	// KindAdmit marks an admission: Start is the request's arrival on
	// this device, End the admission instant; V1 is the KV memory-plane
	// re-prefill penalty charged at admission (nominal seconds, paid
	// into the first slice), V2 the demand estimate in token units.
	KindAdmit
	// KindReject marks an admission-control shed (instant at arrival).
	KindReject
	// KindQueue spans the request's wait: Start is its arrival on this
	// device, End the start of its first slice.
	KindQueue
	// KindSlice is one executed device slice: Start/End is the wall
	// interval; V1 the nominal solver service time of the slice, V2 the
	// nominal re-prefill penalty paid in it (first slice only); N the
	// effective search width; Flag whether the §4.1.2 preemption probe
	// fired during the slice.
	KindSlice
	// KindFinish marks a completion (instant); N is the slice count.
	KindFinish
	// KindCancel marks a mid-flight cancellation (instant); Flag
	// reports whether the request had started executing.
	KindCancel
	// KindWithdraw marks a fail-stop withdrawing the request (instant);
	// Flag reports whether it had started executing.
	KindWithdraw
	// KindFailStop marks the device's own fail-stop (instant, no Tag).
	KindFailStop

	// Control-track kinds.

	// KindRoute is one routing decision (instant at the arrival): V1 is
	// the chosen fleet device index, N the routable device count, and —
	// for view-reading routers — V2 the chosen device's outstanding work
	// as the router saw it.
	KindRoute
	// KindRouteCand is the decision's runner-up — the routable device not
	// chosen with the least outstanding work (ties: fewer pending, lower
	// index) — emitted right after its KindRoute for view-reading routers
	// only (view-oblivious routers never read load): N is the
	// runner-up's fleet index, V1 its outstanding work, V2 its pending
	// population. The decision margin is cand.V1 - route.V2; a decision
	// over a single routable device has no runner-up.
	KindRouteCand
	// KindHedge records a hedged twin placement: V1 the primary device,
	// V2 the twin device (the twin runs under the bit-complement tag).
	KindHedge
	// KindHedgeWin records hedge resolution: the copy whose completion
	// the fleet delivered first won the request. Delivery follows the
	// fleet's completion order, which within one event window is
	// device-index order — not necessarily the earliest finish
	// instant — so the attribution pass keys its winner selection on
	// this span. Tag is the winning copy's tag (^orig when the twin
	// won), V1 the winning device.
	KindHedgeWin
	// KindRequeue is one failure-induced migration: V1 the failed device.
	KindRequeue
	// KindShed marks a request shed for lost capacity (no routable
	// device); N is the request's displacement count.
	KindShed
	// KindCancelReq is the fleet delivering a hedge-loser cancellation:
	// V1 the device, Flag whether the copy had started.
	KindCancelReq
	// KindFailDev marks the fleet retiring a failed device: V1 the
	// device, N the number of requests withdrawn onto the requeue heap.
	KindFailDev
	// KindTick is one control tick: N the routable count, V1 the
	// observed utilization, V2 the window mean queue delay.
	KindTick
	// KindJoin marks a warm-pool instance becoming routable: V1 the
	// device.
	KindJoin
	// KindDrain marks a scale-down drain decision: V1 the victim device.
	KindDrain
)

var kindNames = [...]string{
	KindNone: "none", KindAdmit: "admit", KindReject: "reject",
	KindQueue: "queue", KindSlice: "slice", KindFinish: "finish",
	KindCancel: "cancel", KindWithdraw: "withdraw", KindFailStop: "fail-stop",
	KindRoute: "route", KindRouteCand: "route-cand", KindHedge: "hedge",
	KindHedgeWin: "hedge-win",
	KindRequeue:  "requeue", KindShed: "shed", KindCancelReq: "cancel-req",
	KindFailDev: "fail-dev", KindTick: "tick", KindJoin: "join",
	KindDrain: "drain",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// requestScoped reports whether the kind carries a per-request Tag
// (attribution groups only these; fleet-scoped kinds reuse the Tag
// field for nothing and must not join tag groups).
func (k Kind) requestScoped() bool { return requestScopedKinds>>k&1 != 0 }

// requestScopedKinds has bit k set for each request-scoped kind k; a
// shift past 63 (an unknown kind) reads 0.
const requestScopedKinds uint64 = 1<<KindAdmit | 1<<KindReject | 1<<KindQueue |
	1<<KindSlice | 1<<KindFinish | 1<<KindCancel | 1<<KindWithdraw |
	1<<KindRoute | 1<<KindRouteCand | 1<<KindHedge | 1<<KindHedgeWin |
	1<<KindRequeue | 1<<KindShed | 1<<KindCancelReq

// ControlTrack is the Track id of the fleet control plane.
const ControlTrack = -1

// Span is one recorded event: an interval (Start < End) or an instant
// (Start == End) on one track. V1, V2, N, and Flag are kind-specific
// payloads (see the Kind constants); Tag is the request's correlation
// tag for request-scoped kinds (a hedged twin runs under the
// bit-complement ^tag of its original). The two one-byte fields sit
// last, so a Span packs into 64 bytes.
type Span struct {
	Track int // device fleet index, or ControlTrack
	Tag   int
	Start float64
	End   float64
	V1    float64
	V2    float64
	N     int
	Kind  Kind
	Flag  bool
}

// A track stores its spans in fixed-size chunks: appending never moves
// a recorded span, and Reset keeps the chunks for the next run to
// overwrite instead of handing them to the garbage collector.
const (
	chunkShift = 8
	chunkLen   = 1 << chunkShift // 256 spans, 16 KiB
)

type chunk [chunkLen]Span

// Track is one single-writer span sequence. The nil Track swallows
// emissions, so every instrumentation site is a nil check plus a store
// when enabled and nothing beyond the check when disabled.
type Track struct {
	id     int
	n      int      // spans emitted
	chunks []*chunk // span i is chunks[i>>chunkShift][i&(chunkLen-1)]
}

// Emit appends one span, stamping the track id. Safe on a nil Track
// (the disabled path): it returns immediately and allocates nothing.
func (t *Track) Emit(s Span) {
	if t == nil {
		return
	}
	if t.n == len(t.chunks)<<chunkShift {
		t.chunks = append(t.chunks, new(chunk))
	}
	s.Track = t.id
	t.chunks[t.n>>chunkShift][t.n&(chunkLen-1)] = s
	t.n++
}

// Len returns the number of spans emitted to this track (0 for nil).
func (t *Track) Len() int {
	if t == nil {
		return 0
	}
	return t.n
}

// at returns span i of the track.
func (t *Track) at(i int) *Span { return &t.chunks[i>>chunkShift][i&(chunkLen-1)] }

// Recorder owns the track set of one run. The zero value is ready to
// use; a nil *Recorder is the disabled recorder — Control and Device
// return nil tracks that swallow every emission.
//
// The merged stream and its attribution are computed once and kept
// until the stream changes: every Emit grows the span count and Reset
// drops both, so a cache whose count matches SpanCount is current.
//
// Recording is single-threaded: Control and Device may grow the track
// set, and neither they, Emit nor Reset may overlap any other call. The
// *Track pointers they return are stable across growth. Once recording
// stops, SpanCount, Spans and Attribution are safe to call concurrently:
// mu guards the cache the first of them fills.
type Recorder struct {
	control *Track
	devices []*Track

	mu       sync.Mutex
	merged   []Span // Spans' result; nil until the first merge
	attrs    []RequestAttribution
	attrsSet bool // attrs is the attribution of merged
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Control returns the control-plane track (nil on a nil recorder).
func (r *Recorder) Control() *Track {
	if r == nil {
		return nil
	}
	if r.control == nil {
		r.control = &Track{id: ControlTrack}
	}
	return r.control
}

// Device returns device i's track, growing the track set as needed
// (nil on a nil recorder). Pointers are stable across growth.
func (r *Recorder) Device(i int) *Track {
	if r == nil {
		return nil
	}
	for len(r.devices) <= i {
		r.devices = append(r.devices, &Track{id: len(r.devices)})
	}
	return r.devices[i]
}

// SpanCount returns the total number of recorded spans.
func (r *Recorder) SpanCount() int {
	if r == nil {
		return 0
	}
	n := r.control.Len()
	for _, t := range r.devices {
		n += t.Len()
	}
	return n
}

// Reset drops every recorded span, keeping the track set and its chunks
// for the next run (a recorder is otherwise single-run: attach a fresh
// or reset recorder per run). Streams returned by Spans and Attribution
// before the Reset stay valid.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	if r.control != nil {
		r.control.n = 0
	}
	for _, t := range r.devices {
		t.n = 0
	}
	r.mu.Lock()
	r.merged, r.attrs, r.attrsSet = nil, nil, false
	r.mu.Unlock()
}

// Spans merges every track into one canonically ordered stream: spans
// sort by Start, then by track (control plane first), preserving each
// track's emission order among equal keys. The result is a pure
// function of per-track content: identical per-track sequences give a
// bit-identical merged trace.
//
// The merge runs once per recorded stream: later calls return the same
// slice until a span is emitted or the recorder is reset, so callers
// must not modify it.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans()
}

// spans is Spans with r.mu held.
func (r *Recorder) spans() []Span {
	n := r.SpanCount()
	if r.merged != nil && len(r.merged) == n {
		return r.merged
	}
	tracks := make([]*Track, 0, len(r.devices)+1)
	if r.control != nil {
		tracks = append(tracks, r.control)
	}
	tracks = append(tracks, r.devices...)
	// One key per span, laid out track by track in emission order: a
	// stable sort by Start alone then yields the canonical order, and
	// each span is copied exactly once, when the sorted keys gather it.
	keys := make([]spanKey, 0, n)
	for ti, t := range tracks {
		for i := 0; i < t.n; i++ {
			keys = append(keys, spanKey{start: orderedBits(t.at(i).Start), ref: uint64(ti)<<refShift | uint64(i)})
		}
	}
	keys = radixSort(keys, make([]spanKey, n))
	out := make([]Span, n)
	for i, k := range keys {
		out[i] = *tracks[k.ref>>refShift].at(int(k.ref & (1<<refShift - 1)))
	}
	r.merged, r.attrs, r.attrsSet = out, nil, false
	return out
}

// Attribution is Attribute over the merged stream, computed once per
// recorded stream like Spans: later calls return the same slice until a
// span is emitted or the recorder is reset, so callers must not modify
// it. Nil on a nil recorder.
func (r *Recorder) Attribution() []RequestAttribution {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	spans := r.spans()
	if !r.attrsSet {
		r.attrs, r.attrsSet = Attribute(spans), true
	}
	return r.attrs
}

// spanKey is one span's sort key and its place in the track set.
type spanKey struct {
	start uint64 // orderedBits(Start)
	ref   uint64 // track slot << refShift | emission position
}

const refShift = 40

// orderedBits maps a Start to a key whose unsigned order is the
// cmp.Compare order of the floats: NaN first, -0 equal to +0.
func orderedBits(f float64) uint64 {
	if f != f {
		return 0
	}
	if f == 0 {
		f = 0 // -0 ties +0
	}
	b := math.Float64bits(f)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// radixBits is the digit width of radixSort: six passes at most, over
// count tables small enough to stay in cache.
const radixBits = 11

// radixSort stably sorts keys by start, radixBits at a time from the
// least significant, skipping the digits every key shares; tmp is
// scratch of the same length. It returns whichever of the two holds the
// result.
func radixSort(keys, tmp []spanKey) []spanKey {
	if len(keys) < 2 {
		return keys
	}
	const digits = (64 + radixBits - 1) / radixBits
	var counts [digits][1 << radixBits]int
	for _, k := range keys {
		for d := range counts {
			counts[d][k.start>>(radixBits*d)&(1<<radixBits-1)]++
		}
	}
	for d := range counts {
		c := &counts[d]
		shift := radixBits * d
		if c[keys[0].start>>shift&(1<<radixBits-1)] == len(keys) {
			continue // every key has this digit
		}
		sum := 0
		for b, m := range c {
			c[b] = sum
			sum += m
		}
		for _, k := range keys {
			b := k.start >> shift & (1<<radixBits - 1)
			tmp[c[b]] = k
			c[b]++
		}
		keys, tmp = tmp, keys
	}
	return keys
}

// Verify checks the span stream's lifecycle invariants — the flight
// recorder's conservation laws:
//
//   - every span's interval is well-formed (finite, End >= Start);
//   - device slice intervals never overlap (a device executes one
//     slice at a time);
//   - per (device, tag): at most one admission, and an admitted
//     request is closed exactly once — by a finish, a cancellation, or
//     a fail-stop withdrawal — with every slice inside the
//     [admission, close] window;
//   - slices, queue spans, and finishes never appear without an
//     admission (a queued-only request may still be cancelled or
//     withdrawn).
//
// It returns nil when every invariant holds.
func Verify(spans []Span) error {
	type lifeKey struct{ track, tag int }
	type life struct {
		admits, queues, finishes, cancels, withdraws, slices int
		admitEnd, closeAt                                    float64
		closed                                               bool
	}
	lives := make(map[lifeKey]*life)
	lastSliceEnd := make(map[int]float64)
	for i, s := range spans {
		if math.IsNaN(s.Start) || math.IsNaN(s.End) || math.IsInf(s.Start, 0) || math.IsInf(s.End, 0) {
			return fmt.Errorf("obs: span %d (%s, track %d, tag %d): non-finite interval [%v, %v]",
				i, s.Kind, s.Track, s.Tag, s.Start, s.End)
		}
		if s.End < s.Start {
			return fmt.Errorf("obs: span %d (%s, track %d, tag %d): End %v before Start %v",
				i, s.Kind, s.Track, s.Tag, s.End, s.Start)
		}
		if s.Track < 0 {
			continue // control-plane spans carry no device lifecycle
		}
		if s.Kind == KindSlice {
			if prev, ok := lastSliceEnd[s.Track]; ok && s.Start < prev {
				return fmt.Errorf("obs: device %d: slice [%v, %v] overlaps the previous slice ending %v",
					s.Track, s.Start, s.End, prev)
			}
			lastSliceEnd[s.Track] = s.End
		}
		k := lifeKey{s.Track, s.Tag}
		l := lives[k]
		if l == nil {
			l = &life{}
			lives[k] = l
		}
		switch s.Kind {
		case KindAdmit:
			l.admits++
			l.admitEnd = s.End
		case KindQueue:
			l.queues++
		case KindSlice:
			l.slices++
			if l.admits == 0 {
				return fmt.Errorf("obs: device %d, tag %d: slice without admission", s.Track, s.Tag)
			}
			if s.Start < l.admitEnd {
				return fmt.Errorf("obs: device %d, tag %d: slice starts %v before admission at %v",
					s.Track, s.Tag, s.Start, l.admitEnd)
			}
			if l.closed {
				return fmt.Errorf("obs: device %d, tag %d: slice after the request closed at %v",
					s.Track, s.Tag, l.closeAt)
			}
		case KindFinish:
			l.finishes++
			l.closed, l.closeAt = true, s.End
			if l.admits == 0 {
				return fmt.Errorf("obs: device %d, tag %d: finish without admission", s.Track, s.Tag)
			}
		case KindCancel:
			l.cancels++
			l.closed, l.closeAt = true, s.End
		case KindWithdraw:
			l.withdraws++
			l.closed, l.closeAt = true, s.End
		}
	}
	for k, l := range lives {
		if l.admits > 1 {
			return fmt.Errorf("obs: device %d, tag %d: admitted %d times", k.track, k.tag, l.admits)
		}
		if l.queues > 1 {
			return fmt.Errorf("obs: device %d, tag %d: %d queue spans", k.track, k.tag, l.queues)
		}
		if l.queues > 0 && l.admits == 0 {
			return fmt.Errorf("obs: device %d, tag %d: queue span without admission", k.track, k.tag)
		}
		closes := l.finishes + l.cancels + l.withdraws
		if l.admits == 1 && closes != 1 {
			return fmt.Errorf("obs: device %d, tag %d: admitted once but closed %d times (%d finish, %d cancel, %d withdraw)",
				k.track, k.tag, closes, l.finishes, l.cancels, l.withdraws)
		}
		if l.admits == 0 && closes > 1 {
			return fmt.Errorf("obs: device %d, tag %d: never admitted but closed %d times", k.track, k.tag, closes)
		}
	}
	return nil
}
