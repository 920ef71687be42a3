package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestDisabledPathZeroAllocs pins the flight recorder's disabled-path
// contract: emitting into a nil track — which is exactly what every
// instrumentation site in core and cluster does when no recorder is
// attached — allocates nothing. A regression here would put allocation
// pressure on the engines' hot paths for every run that never asked for
// tracing.
func TestDisabledPathZeroAllocs(t *testing.T) {
	var nilRec *Recorder
	if nilRec.Device(3) != nil || nilRec.Control() != nil {
		t.Fatal("nil recorder must hand out nil tracks")
	}
	span := Span{Kind: KindSlice, Tag: 7, Start: 1, End: 2, V1: 0.5, N: 4}
	allocs := testing.AllocsPerRun(1000, func() {
		var tr *Track
		tr.Emit(span)
		nilRec.Device(0).Emit(span)
		nilRec.Control().Emit(span)
	})
	if allocs != 0 {
		t.Fatalf("disabled emission path allocated %.1f allocs/op, want 0", allocs)
	}
	if nilRec.SpanCount() != 0 || nilRec.Spans() != nil {
		t.Fatal("nil recorder must report no spans")
	}
}

func TestRecorderMergeOrder(t *testing.T) {
	r := NewRecorder()
	d1 := r.Device(1) // grows devices 0 and 1; pointers must stay stable
	d0 := r.Device(0)
	if r.Device(0) != d0 || r.Device(1) != d1 {
		t.Fatal("Device pointers must be stable across growth")
	}
	r.Control().Emit(Span{Kind: KindRoute, Tag: 0, Start: 1, End: 1})
	d1.Emit(Span{Kind: KindAdmit, Tag: 0, Start: 1, End: 1})
	d0.Emit(Span{Kind: KindAdmit, Tag: 1, Start: 0.5, End: 0.5})
	r.Control().Emit(Span{Kind: KindRoute, Tag: 1, Start: 0.5, End: 0.5})

	got := r.Spans()
	want := []Span{
		{Kind: KindRoute, Track: ControlTrack, Tag: 1, Start: 0.5, End: 0.5},
		{Kind: KindAdmit, Track: 0, Tag: 1, Start: 0.5, End: 0.5},
		{Kind: KindRoute, Track: ControlTrack, Tag: 0, Start: 1, End: 1},
		{Kind: KindAdmit, Track: 1, Tag: 0, Start: 1, End: 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merged spans out of canonical order:\n got %+v\nwant %+v", got, want)
	}
	if r.SpanCount() != 4 {
		t.Fatalf("SpanCount = %d, want 4", r.SpanCount())
	}
	r.Reset()
	if r.SpanCount() != 0 {
		t.Fatalf("SpanCount after Reset = %d, want 0", r.SpanCount())
	}
}

// TestRecorderMergeMatchesStableSort is the merge's differential
// oracle: Spans — per-track key sort plus k-way merge — returns element
// for element what the reflection-based sort.SliceStable over the
// concatenated tracks returned before it, on random track sets with
// Start collisions across and within tracks, Start running backwards
// within a track (queue and admit spans are emitted late, with Start =
// arrival), empty tracks, and no control track.
func TestRecorderMergeMatchesStableSort(t *testing.T) {
	rnd := quickRand(t)
	for round := 0; round < 300; round++ {
		r := NewRecorder()
		serial := 0
		fill := func(tr *Track) {
			clock := 0.0
			for n := rnd.Intn(80); n > 0; n-- {
				clock += float64(rnd.Intn(3)) * 0.25 // coarse grid: collisions everywhere
				start := clock
				if rnd.Intn(3) == 0 {
					start -= float64(rnd.Intn(8)) * 0.25 // emitted late
				}
				serial++
				tr.Emit(Span{Kind: Kind(1 + rnd.Intn(int(KindDrain))), Tag: serial, Start: start, End: clock})
			}
		}
		if rnd.Intn(4) > 0 {
			fill(r.Control())
		}
		for d := rnd.Intn(7); d > 0; d-- {
			tr := r.Device(rnd.Intn(12))
			if rnd.Intn(5) > 0 {
				fill(tr)
			}
		}

		var want []Span
		if r.control != nil {
			want = append(want, r.control.spans...)
		}
		for _, tr := range r.devices {
			want = append(want, tr.spans...)
		}
		sort.SliceStable(want, func(i, j int) bool {
			if want[i].Start != want[j].Start {
				return want[i].Start < want[j].Start
			}
			return want[i].Track < want[j].Track
		})
		got := r.Spans()
		if len(got) != len(want) {
			t.Fatalf("round %d: merged %d spans, want %d", round, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d: span %d is %+v, the stable sort has %+v", round, i, got[i], want[i])
			}
		}
	}
}

// lifecycle emits one well-formed request lifecycle on track dev.
func lifecycle(tr *Track, tag int, arrive, admit, start, finish float64) {
	tr.Emit(Span{Kind: KindAdmit, Tag: tag, Start: arrive, End: admit})
	tr.Emit(Span{Kind: KindQueue, Tag: tag, Start: arrive, End: start})
	tr.Emit(Span{Kind: KindSlice, Tag: tag, Start: start, End: finish, V1: finish - start})
	tr.Emit(Span{Kind: KindFinish, Tag: tag, Start: finish, End: finish, N: 1})
}

func TestVerify(t *testing.T) {
	ok := NewRecorder()
	lifecycle(ok.Device(0), 0, 0, 0, 0, 2)
	lifecycle(ok.Device(0), 1, 1, 2, 2, 3)
	if err := Verify(ok.Spans()); err != nil {
		t.Fatalf("valid stream rejected: %v", err)
	}

	cases := []struct {
		name  string
		spans []Span
		want  string
	}{
		{"overlapping slices", []Span{
			{Kind: KindAdmit, Track: 0, Tag: 0, Start: 0, End: 0},
			{Kind: KindAdmit, Track: 0, Tag: 1, Start: 0, End: 0},
			{Kind: KindSlice, Track: 0, Tag: 0, Start: 0, End: 2},
			{Kind: KindSlice, Track: 0, Tag: 1, Start: 1, End: 3},
		}, "overlaps"},
		{"double close", []Span{
			{Kind: KindAdmit, Track: 0, Tag: 0, Start: 0, End: 0},
			{Kind: KindFinish, Track: 0, Tag: 0, Start: 1, End: 1},
			{Kind: KindCancel, Track: 0, Tag: 0, Start: 2, End: 2},
		}, "closed 2 times"},
		{"never closed", []Span{
			{Kind: KindAdmit, Track: 0, Tag: 0, Start: 0, End: 0},
			{Kind: KindSlice, Track: 0, Tag: 0, Start: 0, End: 1},
		}, "closed 0 times"},
		{"backwards interval", []Span{
			{Kind: KindSlice, Track: 0, Tag: 0, Start: 2, End: 1},
		}, "before Start"},
		{"slice without admission", []Span{
			{Kind: KindSlice, Track: 0, Tag: 0, Start: 0, End: 1},
		}, "without admission"},
		{"double admission", []Span{
			{Kind: KindAdmit, Track: 0, Tag: 0, Start: 0, End: 0},
			{Kind: KindFinish, Track: 0, Tag: 0, Start: 1, End: 1},
			{Kind: KindAdmit, Track: 0, Tag: 0, Start: 2, End: 2},
		}, "admitted 2 times"},
	}
	for _, tc := range cases {
		err := Verify(tc.spans)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Verify = %v, want error containing %q", tc.name, err, tc.want)
		}
	}
}

func TestWritePerfettoDeterministicShape(t *testing.T) {
	r := NewRecorder()
	r.Control().Emit(Span{Kind: KindRoute, Tag: 0, Start: 0, End: 0, V1: 1, N: 2})
	lifecycle(r.Device(1), 0, 0, 0, 0.5, 2.0)

	var a, b bytes.Buffer
	if err := WritePerfetto(&a, r.Spans()); err != nil {
		t.Fatal(err)
	}
	if err := WritePerfetto(&b, r.Spans()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("WritePerfetto must be byte-deterministic for identical span streams")
	}

	var doc struct {
		TraceEvents []struct {
			Name string   `json:"name"`
			Ph   string   `json:"ph"`
			Ts   float64  `json:"ts"`
			Dur  *float64 `json:"dur"`
			Pid  int      `json:"pid"`
			Tid  int      `json:"tid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(a.Bytes(), &doc); err != nil {
		t.Fatalf("invalid Chrome trace JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	// 3 thread_name metadata events (control + devices 0, 1) + 5 spans.
	if len(doc.TraceEvents) != 8 {
		t.Fatalf("got %d trace events, want 8", len(doc.TraceEvents))
	}
	meta, complete, instant := 0, 0, 0
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
		case "X":
			complete++
			if ev.Dur == nil {
				t.Errorf("complete event %q has no dur", ev.Name)
			}
		case "i":
			instant++
		default:
			t.Errorf("unexpected phase %q", ev.Ph)
		}
	}
	if meta != 3 || complete != 2 || instant != 3 {
		t.Fatalf("event mix meta/complete/instant = %d/%d/%d, want 3/2/3", meta, complete, instant)
	}
	// The device-1 slice runs on tid 2 (control is 0, device i is i+1),
	// with microsecond timestamps.
	found := false
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Name == "slice #0" {
			found = true
			if ev.Tid != 2 || ev.Dur == nil || *ev.Dur != 1.5e6 {
				t.Errorf("slice event tid=%d dur=%v, want tid=2 dur=1.5e6", ev.Tid, ev.Dur)
			}
		}
	}
	if !found {
		t.Fatal("no slice complete event in trace")
	}
}

func TestAttributeDecomposition(t *testing.T) {
	r := NewRecorder()
	c := r.Control()
	// Request 0: plain lifecycle on device 0 — queue 1s, two slices with
	// a re-prefill penalty and straggler inflation, a preemption gap.
	c.Emit(Span{Kind: KindRoute, Tag: 0, Start: 0, End: 0, V1: 0, N: 2})
	d0 := r.Device(0)
	d0.Emit(Span{Kind: KindAdmit, Tag: 0, Start: 0, End: 0, V1: 0.25})
	d0.Emit(Span{Kind: KindQueue, Tag: 0, Start: 0, End: 1})
	// Slice 1: wall 2.25 = nominal 1.5 + reprefill 0.25 + straggler 0.5.
	d0.Emit(Span{Kind: KindSlice, Tag: 0, Start: 1, End: 3.25, V1: 1.5, V2: 0.25, N: 4, Flag: true})
	// Preemption gap [3.25, 4): another tenant held the device.
	d0.Emit(Span{Kind: KindSlice, Tag: 0, Start: 4, End: 5, V1: 1.0})
	d0.Emit(Span{Kind: KindFinish, Tag: 0, Start: 5, End: 5, N: 2})

	// Request 1: hedged; twin (^1 on device 1) wins, primary's work on
	// device 0 is hedge waste.
	c.Emit(Span{Kind: KindRoute, Tag: 1, Start: 0.5, End: 0.5, V1: 0, N: 2})
	c.Emit(Span{Kind: KindRoute, Tag: ^1, Start: 0.5, End: 0.5, V1: 1, N: 1})
	c.Emit(Span{Kind: KindHedge, Tag: 1, Start: 0.5, End: 0.5, V1: 0, V2: 1})
	d1 := r.Device(1)
	d1.Emit(Span{Kind: KindAdmit, Tag: ^1, Start: 0.5, End: 0.5})
	d1.Emit(Span{Kind: KindQueue, Tag: ^1, Start: 0.5, End: 0.5})
	d1.Emit(Span{Kind: KindSlice, Tag: ^1, Start: 0.5, End: 2.5, V1: 2.0})
	d1.Emit(Span{Kind: KindFinish, Tag: ^1, Start: 2.5, End: 2.5, N: 1})
	d0.Emit(Span{Kind: KindAdmit, Tag: 1, Start: 0.5, End: 0.5})
	d0.Emit(Span{Kind: KindQueue, Tag: 1, Start: 0.5, End: 5})
	d0.Emit(Span{Kind: KindSlice, Tag: 1, Start: 5, End: 6, V1: 1.0})
	d0.Emit(Span{Kind: KindCancel, Tag: 1, Start: 6, End: 6, Flag: true})

	attrs := Attribute(r.Spans())
	if len(attrs) != 2 {
		t.Fatalf("attributed %d requests, want 2", len(attrs))
	}
	a0 := attrs[0]
	if a0.Tag != 0 || a0.Device != 0 {
		t.Fatalf("request 0 attributed to tag %d device %d", a0.Tag, a0.Device)
	}
	checks := []struct {
		name      string
		got, want float64
	}{
		{"wall", a0.Wall, 5},
		{"queue", a0.Queue, 1},
		{"service", a0.Service, 2.5},
		{"reprefill", a0.Reprefill, 0.25},
		{"straggler", a0.Straggler, 0.5},
		{"preemption", a0.Preemption, 0.75},
	}
	for _, ck := range checks {
		if math.Abs(ck.got-ck.want) > 1e-12 {
			t.Errorf("request 0 %s = %v, want %v", ck.name, ck.got, ck.want)
		}
	}
	if a0.Slices != 2 || a0.Preemptions != 1 || a0.Hedged {
		t.Errorf("request 0 slices/preemptions/hedged = %d/%d/%v, want 2/1/false",
			a0.Slices, a0.Preemptions, a0.Hedged)
	}

	a1 := attrs[1]
	if a1.Tag != 1 || a1.Device != 1 || !a1.Hedged {
		t.Fatalf("request 1 attributed to tag %d device %d hedged %v, want 1/1/true", a1.Tag, a1.Device, a1.Hedged)
	}
	if a1.Wall != 2 || a1.Service != 2 || a1.HedgeWaste != 1 {
		t.Errorf("request 1 wall/service/hedgeWaste = %v/%v/%v, want 2/2/1", a1.Wall, a1.Service, a1.HedgeWaste)
	}

	if err := CheckSums(attrs); err != nil {
		t.Fatalf("components must sum to wall: %v", err)
	}
	st := Summarize(attrs)
	if st.Requests != 2 || st.Hedged != 1 || st.Wall != 7 || st.HedgeWaste != 1 {
		t.Fatalf("summary = %+v", st)
	}
}

// TestAttributeHedgeWinOverride pins the hedge-resolution contract: the
// fleet delivers completions in device-index order within an event
// window, so the copy it resolves as winner (the KindHedgeWin span) can
// have a LATER finish instant than its twin — attribution must follow
// the resolution, not the earlier clock reading.
func TestAttributeHedgeWinOverride(t *testing.T) {
	r := NewRecorder()
	c := r.Control()
	c.Emit(Span{Kind: KindRoute, Tag: 3, Start: 0, End: 0, V1: 0, N: 2})
	c.Emit(Span{Kind: KindRoute, Tag: ^3, Start: 0, End: 0, V1: 1, N: 1})
	c.Emit(Span{Kind: KindHedge, Tag: 3, Start: 0, End: 0, V1: 0, V2: 1})
	d0, d1 := r.Device(0), r.Device(1)
	// Twin on device 1 finishes first on the virtual clock...
	d1.Emit(Span{Kind: KindAdmit, Tag: ^3, Start: 0, End: 0})
	d1.Emit(Span{Kind: KindQueue, Tag: ^3, Start: 0, End: 0})
	d1.Emit(Span{Kind: KindSlice, Tag: ^3, Start: 0, End: 4, V1: 4})
	d1.Emit(Span{Kind: KindFinish, Tag: ^3, Start: 4, End: 4, N: 1})
	// ...but the primary on device 0, completing within the same event
	// window, was delivered first and won.
	d0.Emit(Span{Kind: KindAdmit, Tag: 3, Start: 0, End: 0})
	d0.Emit(Span{Kind: KindQueue, Tag: 3, Start: 0, End: 1})
	d0.Emit(Span{Kind: KindSlice, Tag: 3, Start: 1, End: 6, V1: 5})
	d0.Emit(Span{Kind: KindFinish, Tag: 3, Start: 6, End: 6, N: 1})
	c.Emit(Span{Kind: KindHedgeWin, Tag: 3, Start: 6, End: 6, V1: 0})

	attrs := Attribute(r.Spans())
	if len(attrs) != 1 {
		t.Fatalf("attributed %d requests, want 1", len(attrs))
	}
	a := attrs[0]
	if a.Device != 0 || a.Finish != 6 || a.Wall != 6 || !a.Hedged {
		t.Fatalf("device/finish/wall/hedged = %d/%v/%v/%v, want 0/6/6/true",
			a.Device, a.Finish, a.Wall, a.Hedged)
	}
	if a.Service != 5 || a.HedgeWaste != 4 {
		t.Fatalf("service/hedgeWaste = %v/%v, want 5/4 (the twin's work is waste)",
			a.Service, a.HedgeWaste)
	}
	if err := CheckSums(attrs); err != nil {
		t.Fatal(err)
	}
	if err := Verify(r.Spans()); err != nil {
		t.Fatal(err)
	}
}

// TestAttributeRequeueLostWork covers the fail-stop migration shape:
// slices executed on the failed device are LostWork, the serving copy on
// the survivor carries the decomposition, and the wait on the failed
// device folds into Queue (arrival is the original submission).
func TestAttributeRequeueLostWork(t *testing.T) {
	r := NewRecorder()
	c := r.Control()
	c.Emit(Span{Kind: KindRoute, Tag: 5, Start: 0, End: 0, V1: 0, N: 2})
	d0, d1 := r.Device(0), r.Device(1)
	d0.Emit(Span{Kind: KindAdmit, Tag: 5, Start: 0, End: 0})
	d0.Emit(Span{Kind: KindQueue, Tag: 5, Start: 0, End: 0})
	d0.Emit(Span{Kind: KindSlice, Tag: 5, Start: 0, End: 2, V1: 2})
	d0.Emit(Span{Kind: KindWithdraw, Tag: 5, Start: 2, End: 2, Flag: true})
	d0.Emit(Span{Kind: KindFailStop, Start: 2, End: 2, N: 1})
	c.Emit(Span{Kind: KindRequeue, Tag: 5, Start: 2, End: 2, V1: 0})
	c.Emit(Span{Kind: KindRoute, Tag: 5, Start: 2, End: 2, V1: 1, N: 1})
	d1.Emit(Span{Kind: KindAdmit, Tag: 5, Start: 2, End: 2})
	d1.Emit(Span{Kind: KindQueue, Tag: 5, Start: 2, End: 3})
	d1.Emit(Span{Kind: KindSlice, Tag: 5, Start: 3, End: 6, V1: 3})
	d1.Emit(Span{Kind: KindFinish, Tag: 5, Start: 6, End: 6, N: 1})

	attrs := Attribute(r.Spans())
	if len(attrs) != 1 {
		t.Fatalf("attributed %d requests, want 1", len(attrs))
	}
	a := attrs[0]
	if a.Device != 1 || a.Requeues != 1 {
		t.Fatalf("device/requeues = %d/%d, want 1/1", a.Device, a.Requeues)
	}
	if a.Wall != 6 || a.Queue != 3 || a.Service != 3 || a.LostWork != 2 {
		t.Fatalf("wall/queue/service/lostWork = %v/%v/%v/%v, want 6/3/3/2", a.Wall, a.Queue, a.Service, a.LostWork)
	}
	if err := CheckSums(attrs); err != nil {
		t.Fatal(err)
	}
	if err := Verify(r.Spans()); err != nil {
		t.Fatal(err)
	}
}

// TestAttributeAllocsIndependentOfSpansPerRequest pins the grouping's
// allocation profile: Attribute groups by index, so a request with forty
// slices costs no more objects than one with four — only the request
// count shows (one map entry each).
func TestAttributeAllocsIndependentOfSpansPerRequest(t *testing.T) {
	const requests = 500
	stream := func(slices int) []Span {
		r := NewRecorder()
		for tag := 0; tag < requests; tag++ {
			at := float64(tag)
			r.Control().Emit(Span{Kind: KindRoute, Tag: tag, Start: at, End: at, N: 1})
			d := r.Device(0)
			d.Emit(Span{Kind: KindAdmit, Tag: tag, Start: at, End: at})
			d.Emit(Span{Kind: KindQueue, Tag: tag, Start: at, End: at})
			step := 0.5 / float64(slices)
			for i := 0; i < slices; i++ {
				d.Emit(Span{Kind: KindSlice, Tag: tag, Start: at + float64(i)*step, End: at + float64(i+1)*step, V1: step})
			}
			d.Emit(Span{Kind: KindFinish, Tag: tag, Start: at + 0.5, End: at + 0.5, N: slices})
		}
		return r.Spans()
	}
	measure := func(spans []Span) float64 {
		return testing.AllocsPerRun(5, func() {
			if got := len(Attribute(spans)); got != requests {
				t.Fatalf("attributed %d of %d requests", got, requests)
			}
		})
	}
	few, many := measure(stream(4)), measure(stream(40))
	if many > few {
		t.Fatalf("Attribute allocates %.0f objects at 4 slices per request but %.0f at 40", few, many)
	}
}
