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
	"cmp"
	"fmt"
	"math"
	"slices"
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
func (k Kind) requestScoped() bool {
	switch k {
	case KindAdmit, KindReject, KindQueue, KindSlice, KindFinish,
		KindCancel, KindWithdraw, KindRoute, KindRouteCand, KindHedge,
		KindHedgeWin, KindRequeue, KindShed, KindCancelReq:
		return true
	}
	return false
}

// ControlTrack is the Track id of the fleet control plane.
const ControlTrack = -1

// Span is one recorded event: an interval (Start < End) or an instant
// (Start == End) on one track. V1, V2, N, and Flag are kind-specific
// payloads (see the Kind constants); Tag is the request's correlation
// tag for request-scoped kinds (a hedged twin runs under the
// bit-complement ^tag of its original).
type Span struct {
	Kind  Kind
	Track int // device fleet index, or ControlTrack
	Tag   int
	Start float64
	End   float64
	V1    float64
	V2    float64
	N     int
	Flag  bool
}

// Track is one single-writer span sequence. The nil Track swallows
// emissions, so every instrumentation site is a nil check plus a value
// append — no allocation, no branch beyond the check, when disabled.
type Track struct {
	id    int
	spans []Span
}

// Emit appends one span, stamping the track id. Safe on a nil Track
// (the disabled path): it returns immediately and allocates nothing.
func (t *Track) Emit(s Span) {
	if t == nil {
		return
	}
	s.Track = t.id
	t.spans = append(t.spans, s)
}

// Len returns the number of spans emitted to this track (0 for nil).
func (t *Track) Len() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

// Recorder owns the track set of one run. The zero value is ready to
// use; a nil *Recorder is the disabled recorder — Control and Device
// return nil tracks that swallow every emission.
//
// A Recorder is not safe for concurrent use: Control and Device may grow
// the track set. The *Track pointers they return are stable across
// growth.
type Recorder struct {
	control *Track
	devices []*Track
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

// Reset drops every recorded span, keeping the track set (a recorder
// is otherwise single-run: attach a fresh or reset recorder per run).
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	if r.control != nil {
		r.control.spans = r.control.spans[:0]
	}
	for _, t := range r.devices {
		t.spans = t.spans[:0]
	}
}

// Spans merges every track into one canonically ordered stream: spans
// sort by Start, then by track (control plane first), preserving each
// track's emission order among equal keys. The result is a pure
// function of per-track content: identical per-track sequences give a
// bit-identical merged trace.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	// Order each track by Start on 16-byte keys (tracks are near-sorted:
	// only queue and admit spans, emitted late with Start = arrival, sit
	// out of place), then k-way merge the tracks by (Start, track),
	// copying every 72-byte span exactly once.
	n := r.SpanCount()
	keys := make([]spanKey, 0, n)
	h := make(mergeHeap, 0, len(r.devices)+1)
	add := func(t *Track) {
		if t.Len() == 0 {
			return
		}
		lo := len(keys)
		for i := range t.spans {
			keys = append(keys, spanKey{start: t.spans[i].Start, pos: i})
		}
		order := keys[lo:]
		slices.SortFunc(order, func(a, b spanKey) int {
			if c := cmp.Compare(a.start, b.start); c != 0 {
				return c
			}
			return cmp.Compare(a.pos, b.pos) // total, so the order is the stable one
		})
		h = append(h, mergeCursor{track: t, order: order})
	}
	add(r.control)
	for _, t := range r.devices {
		add(t)
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	out := make([]Span, 0, n)
	for len(h) > 0 {
		c := &h[0]
		out = append(out, c.track.spans[c.order[0].pos])
		if c.order = c.order[1:]; len(c.order) == 0 {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		h.down(0)
	}
	return out
}

// spanKey is one span's place within its track's Start order.
type spanKey struct {
	start float64
	pos   int // emission position in the track
}

// mergeCursor is one track's unmerged remainder, in Start order.
type mergeCursor struct {
	track *Track
	order []spanKey
}

// mergeHeap is a binary min-heap of non-empty cursors keyed by
// (next Start, track id).
type mergeHeap []mergeCursor

func (h mergeHeap) less(i, j int) bool {
	if c := cmp.Compare(h[i].order[0].start, h[j].order[0].start); c != 0 {
		return c < 0
	}
	return h[i].track.id < h[j].track.id
}

func (h mergeHeap) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h.less(c+1, c) {
			c++
		}
		if !h.less(c, i) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
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
