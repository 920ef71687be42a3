package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"slices"
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
// oracle: Spans — a stable radix sort of the tracks' keys — returns
// element for element what the reflection-based sort.SliceStable over
// the concatenated tracks returned before it, on random track sets with
// Start collisions across and within tracks (-0 among them, equal to
// +0), negative Starts, Start running backwards within a track (queue
// and admit spans are emitted late, with Start = arrival), tracks longer
// than a chunk, empty tracks, and no control track.
func TestRecorderMergeMatchesStableSort(t *testing.T) {
	rnd := quickRand(t)
	for round := 0; round < 300; round++ {
		r := NewRecorder()
		serial := 0
		fill := func(tr *Track) {
			clock := 0.0
			for n := rnd.Intn(3 * chunkLen); n > 0; n-- { // tracks cross chunk boundaries
				clock += float64(rnd.Intn(3)) * 0.25 // coarse grid: collisions everywhere
				start := clock
				if rnd.Intn(3) == 0 {
					start -= float64(rnd.Intn(8)) * 0.25 // emitted late
				}
				if start == 0 && rnd.Intn(2) == 0 {
					start = math.Copysign(0, -1) // ties +0
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
		for _, tr := range append([]*Track{r.control}, r.devices...) {
			for i := 0; i < tr.Len(); i++ {
				want = append(want, *tr.at(i))
			}
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

// TestRecorderCachesMergeAndAttribution pins the recorder's one merge and
// one attribution per recorded stream: repeated calls share one slice, an
// emission or a Reset invalidates it, and a stream handed out before a
// Reset survives the next run overwriting the recycled chunks.
func TestRecorderCachesMergeAndAttribution(t *testing.T) {
	r := NewRecorder()
	lifecycle(r.Device(0), 0, 0, 0, 0, 2)
	first, attrs := r.Spans(), r.Attribution()
	if len(first) != 4 || len(attrs) != 1 {
		t.Fatalf("merged %d spans, attributed %d requests; want 4 and 1", len(first), len(attrs))
	}
	if again := r.Spans(); &again[0] != &first[0] {
		t.Fatal("a second Spans call merged again")
	}
	if again := r.Attribution(); &again[0] != &attrs[0] {
		t.Fatal("a second Attribution call attributed again")
	}

	lifecycle(r.Device(1), 1, 1, 1, 1, 3)
	if got := r.Spans(); len(got) != 8 || len(r.Attribution()) != 2 {
		t.Fatalf("after an emission: %d spans, %d attributions; want 8 and 2", len(got), len(r.Attribution()))
	}

	kept := slices.Clone(first)
	r.Reset()
	// A new run as long as the last merge: the count alone cannot tell
	// the streams apart, Reset must.
	lifecycle(r.Device(0), 5, 7, 7, 7, 9) // overwrites the recycled chunk
	lifecycle(r.Device(1), 6, 7, 7, 7, 9)
	if !slices.Equal(first, kept) {
		t.Fatal("a stream returned before Reset changed when the chunks were reused")
	}
	if got := r.Spans(); len(got) != 8 || got[0].Tag != 5 || r.Attribution()[0].Tag != 5 {
		t.Fatalf("after Reset and a new run: %+v", got)
	}
	r.Reset()
	if got := r.Spans(); len(got) != 0 || r.Attribution() != nil {
		t.Fatalf("after Reset: %d spans, %d attributions", len(got), len(r.Attribution()))
	}
}

// TestTrackChunksNeverMove pins the chunked track: a span's address never
// changes as the track grows past chunk boundaries, the first fill
// allocates one chunk per chunkLen spans, and a reset track refills its
// kept chunks without allocating.
func TestTrackChunksNeverMove(t *testing.T) {
	r := NewRecorder()
	tr := r.Device(0)
	const spans = 5*chunkLen + 3
	fill := func() {
		for i := 0; i < spans; i++ {
			tr.Emit(Span{Kind: KindSlice, Tag: i, Start: float64(i), End: float64(i + 1)})
		}
	}
	tr.Emit(Span{Kind: KindAdmit})
	p := tr.at(0)
	// AllocsPerRun's warm-up call grows the track; the measured call
	// refills the chunks Reset kept.
	refill := testing.AllocsPerRun(1, func() { r.Reset(); fill() })
	if p != tr.at(0) || tr.at(0).Tag != 0 || tr.at(spans-1).Tag != spans-1 {
		t.Fatal("spans moved or were lost as the track grew")
	}
	if refill != 0 {
		t.Fatalf("refilling a reset track allocated %.0f objects, want 0", refill)
	}
	fresh := NewRecorder().Device(0)
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < spans; i++ {
			fresh.Emit(Span{Kind: KindSlice})
		}
	})
	// One chunk per chunkLen spans, plus the chunk index's own growth.
	if max := float64(spans/chunkLen+1) + 4; allocs > max {
		t.Fatalf("filling %d spans allocated %.0f objects, want <= %.0f", spans, allocs, max)
	}
}

// TestAttributeSparseTags: tags too sparse to index a slot table directly
// group through the sorted-tag table to the same attributions.
func TestAttributeSparseTags(t *testing.T) {
	build := func(tag func(int) int) []Span {
		r := NewRecorder()
		for k := 0; k < 40; k++ {
			at := float64(k % 7)
			r.Control().Emit(Span{Kind: KindRoute, Tag: tag(k), Start: at, End: at, N: 2})
			lifecycle(r.Device(k%3), tag(k), at, at, at+0.5, at+1.25)
		}
		return r.Spans()
	}
	dense := Attribute(build(func(k int) int { return k }))
	sparse := Attribute(build(func(k int) int { return k<<40 + 3 }))
	if len(dense) != 40 || len(sparse) != 40 {
		t.Fatalf("attributed %d dense and %d sparse requests, want 40", len(dense), len(sparse))
	}
	for i := range dense {
		if want := dense[i].Tag<<40 + 3; sparse[i].Tag != want {
			t.Fatalf("record %d: sparse tag %d, want %d", i, sparse[i].Tag, want)
		}
		sparse[i].Tag = dense[i].Tag
		if sparse[i] != dense[i] {
			t.Fatalf("record %d: sparse %+v, dense %+v", i, sparse[i], dense[i])
		}
	}
}

// TestAttributeStructuralZeros: a request with no straggler and no
// preemption gap has Straggler and Preemption exactly 0, although its
// clock readings — late absolute instants, so End-Start and Finish-Arrival
// round — leave float dust in the raw differences; the identity still
// holds within 1 ulp of Wall, because the dust folds into Service, and
// Queue is left as measured. A real straggler and a real gap are kept.
func TestAttributeStructuralZeros(t *testing.T) {
	arrive, nom := 1000.1, 0.3
	start := arrive + 0.7
	end := start + nom
	if (end-start)-nom == 0 {
		t.Fatal("test instants leave no dust; pick others")
	}
	r := NewRecorder()
	d := r.Device(0)
	d.Emit(Span{Kind: KindAdmit, Tag: 0, Start: arrive, End: arrive})
	d.Emit(Span{Kind: KindQueue, Tag: 0, Start: arrive, End: start})
	d.Emit(Span{Kind: KindSlice, Tag: 0, Start: start, End: end, V1: nom})
	d.Emit(Span{Kind: KindFinish, Tag: 0, Start: end, End: end, N: 1})
	// Request 1: slowed down 1.5x, then preempted for 0.2 before its
	// second slice.
	s1 := end
	e1 := s1 + 1.5*nom
	s2 := e1 + 0.2
	e2 := s2 + nom
	d.Emit(Span{Kind: KindAdmit, Tag: 1, Start: arrive, End: arrive})
	d.Emit(Span{Kind: KindQueue, Tag: 1, Start: arrive, End: s1})
	d.Emit(Span{Kind: KindSlice, Tag: 1, Start: s1, End: e1, V1: nom})
	d.Emit(Span{Kind: KindSlice, Tag: 1, Start: s2, End: e2, V1: nom})
	d.Emit(Span{Kind: KindFinish, Tag: 1, Start: e2, End: e2, N: 2})

	attrs := r.Attribution()
	if err := CheckSums(attrs); err != nil {
		t.Fatal(err)
	}
	if a := attrs[0]; a.Straggler != 0 || a.Preemption != 0 {
		t.Fatalf("undisturbed request: straggler %g, preemption %g; want exactly 0", a.Straggler, a.Preemption)
	}
	if a := attrs[0]; a.Queue != start-arrive || math.Abs(a.Service-nom) > 1e-12 {
		t.Fatalf("undisturbed request: queue %v, service %v; want %v and about %v", a.Queue, a.Service, start-arrive, nom)
	}
	if a := attrs[1]; math.Abs(a.Straggler-0.5*nom) > 1e-9 || math.Abs(a.Preemption-0.2) > 1e-9 {
		t.Fatalf("slowed, preempted request: straggler %g, preemption %g; want %g and 0.2", a.Straggler, a.Preemption, 0.5*nom)
	}
	if st := Summarize(attrs[:1]); st.Straggler != 0 || st.Preemption != 0 {
		t.Fatalf("rollup of the undisturbed request: %+v", st)
	}
}

// TestDropPreemptionDustKeepsIdentity: a dust-sized residual that
// neither dropping nor folding into Service can place within 1 ulp of
// Wall — here Service's ulp is far coarser than Wall's — is kept, so the
// CheckSums identity holds either way.
func TestDropPreemptionDustKeepsIdentity(t *testing.T) {
	a := RequestAttribution{Wall: 1 + 1e-13, Service: 1e6, Straggler: -(1e6 - 1)}
	a.Preemption = a.Wall - a.ComponentSum()
	want := a
	dropPreemptionDust(&a)
	if a != want {
		t.Fatalf("unplaceable residual changed the record: %+v, want %+v", a, want)
	}
	if err := CheckSums([]RequestAttribution{a}); err != nil {
		t.Fatal(err)
	}
}
