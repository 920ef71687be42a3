package obs

// The Perfetto encoder's differential oracle: the struct tree +
// encoding/json implementation WritePerfetto replaced lives on here, and
// the append-style encoder must reproduce it byte for byte. Reproduce a
// failure with
//
//	go test ./internal/obs -quick.seed=<n>

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"testing"
	"time"
)

var quickSeed = flag.Int("quick.seed", int(time.Now().UnixNano())%100000, "seed for the obs oracle tests")

// quickRand is the -quick.seed random source, logged for reproduction.
func quickRand(t *testing.T) *rand.Rand {
	t.Helper()
	t.Logf("quick.seed=%d", *quickSeed)
	return rand.New(rand.NewSource(int64(*quickSeed)))
}

// oracleEvent is one Chrome-trace-event object. Field order (and the
// struct-based args) keep the emitted JSON byte-deterministic for a
// given span stream.
type oracleEvent struct {
	Name string      `json:"name"`
	Ph   string      `json:"ph"`
	Ts   float64     `json:"ts"`
	Dur  *float64    `json:"dur,omitempty"`
	Pid  int         `json:"pid"`
	Tid  int         `json:"tid"`
	S    string      `json:"s,omitempty"`
	Args *oracleArgs `json:"args,omitempty"`
}

type oracleArgs struct {
	Name string  `json:"name,omitempty"`
	Tag  *int    `json:"tag,omitempty"`
	V1   float64 `json:"v1,omitempty"`
	V2   float64 `json:"v2,omitempty"`
	N    int     `json:"n,omitempty"`
	Flag bool    `json:"flag,omitempty"`
}

type oracleFile struct {
	TraceEvents     []oracleEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// oracleWritePerfetto is the reference Perfetto encoder: the struct tree
// and encoding/json implementation WritePerfetto replaced, kept verbatim
// as the byte-equality oracle for the append-style encoder.
func oracleWritePerfetto(w io.Writer, spans []Span) error {
	tid := func(track int) int { return track + 1 } // ControlTrack (-1) -> 0

	// Thread-name metadata: control plane plus every device track seen.
	maxDev := -1
	seenControl := false
	for _, s := range spans {
		if s.Track == ControlTrack {
			seenControl = true
		} else if s.Track > maxDev {
			maxDev = s.Track
		}
	}
	events := make([]oracleEvent, 0, len(spans)+maxDev+2)
	if seenControl {
		events = append(events, oracleEvent{
			Name: "thread_name", Ph: "M", Pid: 0, Tid: 0,
			Args: &oracleArgs{Name: "control plane"},
		})
	}
	for d := 0; d <= maxDev; d++ {
		events = append(events, oracleEvent{
			Name: "thread_name", Ph: "M", Pid: 0, Tid: tid(d),
			Args: &oracleArgs{Name: fmt.Sprintf("device %d", d)},
		})
	}

	for _, s := range spans {
		name := s.Kind.String()
		if s.Kind.requestScoped() {
			name = fmt.Sprintf("%s #%d", s.Kind, s.Tag)
		}
		tag := s.Tag
		ev := oracleEvent{
			Name: name,
			Ts:   s.Start * 1e6,
			Pid:  0,
			Tid:  tid(s.Track),
			Args: &oracleArgs{Tag: &tag, V1: s.V1, V2: s.V2, N: s.N, Flag: s.Flag},
		}
		if !s.Kind.requestScoped() {
			ev.Args.Tag = nil
		}
		if s.End > s.Start {
			dur := (s.End - s.Start) * 1e6
			ev.Ph = "X"
			ev.Dur = &dur
		} else {
			ev.Ph = "i"
			ev.S = "t"
		}
		events = append(events, ev)
	}

	enc := json.NewEncoder(w)
	return enc.Encode(oracleFile{TraceEvents: events, DisplayTimeUnit: "ms"})
}

// hostileFloat draws a payload from every formatting regime of
// encoding/json's float encoder: both zeros (omitted), plain decimals,
// integers, the 'e' form below 1e-6 and from 1e21, either sign.
func hostileFloat(r *rand.Rand) float64 {
	var f float64
	switch r.Intn(8) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		f = float64(r.Intn(64))
	case 3:
		f = r.Float64() * 1e-6 // mostly 'e' form, exponents e-7 and below
	case 4:
		f = r.Float64() * 1e-12 // two-digit exponents
	case 5:
		f = (1 + r.Float64()) * math.Pow(10, float64(18+r.Intn(8))) // straddles 1e21
	case 6:
		f = r.ExpFloat64() * 1e3
	default:
		f = r.NormFloat64()
	}
	if r.Intn(4) == 0 {
		f = -f
	}
	return f
}

// hostileSpan draws one span over every kind (plus an unknown one),
// control and device tracks, original and hedge-twin tags, instants,
// intervals and backwards intervals, with timestamps and durations that
// land in the 'e' ranges once scaled to microseconds.
func hostileSpan(r *rand.Rand) Span {
	s := Span{
		Kind:  Kind(r.Intn(int(KindDrain) + 1)),
		Track: r.Intn(42) - 1, // ControlTrack..40
		Tag:   r.Intn(2000),
		V1:    hostileFloat(r),
		V2:    hostileFloat(r),
		Flag:  r.Intn(2) == 0,
	}
	if r.Intn(50) == 0 {
		s.Kind = Kind(200 + r.Intn(56))
	}
	if r.Intn(5) == 0 {
		s.Tag = ^s.Tag // hedge twin
	}
	if r.Intn(2) == 0 {
		s.N = r.Intn(129) - 64
	}
	switch r.Intn(6) {
	case 0: // ts == 0
	case 1:
		s.Start = r.Float64() * 1e-13 // ts below 1e-6 us
	case 2:
		s.Start = (1 + r.Float64()) * 1e15 // ts from 1e21 us
	case 3:
		s.Start = -r.Float64()
	default:
		s.Start = r.Float64() * 100
	}
	switch r.Intn(6) {
	case 0:
		s.End = s.Start - r.Float64() // backwards: encoded as an instant
	case 1:
		s.End = s.Start + r.Float64()*1e-13 // dur below 1e-6 us (or an instant, when absorbed)
	case 2:
		s.End = s.Start + (1+r.Float64())*1e15
	case 3, 4:
		s.End = s.Start + r.Float64()
	default:
		s.End = s.Start
	}
	return s
}

// encodeBoth runs the encoder and its oracle on one stream.
func encodeBoth(t *testing.T, spans []Span) (got, want []byte, gotErr, wantErr error) {
	t.Helper()
	var g, w bytes.Buffer
	gotErr = WritePerfetto(&g, spans)
	wantErr = oracleWritePerfetto(&w, spans)
	return g.Bytes(), w.Bytes(), gotErr, wantErr
}

// requireSameBytes fails with the first diverging event-sized window.
func requireSameBytes(t *testing.T, label string, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(i-120, 0)
	t.Fatalf("%s: output diverges from encoding/json at byte %d (%d vs %d bytes):\n got ...%s\nwant ...%s",
		label, i, len(got), len(want), got[lo:min(i+60, len(got))], want[lo:min(i+60, len(want))])
}

// TestWritePerfettoMatchesJSONOracle is the encoder's differential
// test: on random hostile streams — and the degenerate ones — the
// append-style encoder emits exactly the bytes encoding/json emits for
// the equivalent event tree.
func TestWritePerfettoMatchesJSONOracle(t *testing.T) {
	r := quickRand(t)
	streams := map[string][]Span{
		"empty":        nil,
		"control-only": {{Kind: KindTick, Track: ControlTrack, Start: 1, End: 1, V1: 0.5, N: 3}, {Kind: KindRoute, Track: ControlTrack, Tag: 7, Start: 2, End: 2}},
		"device-only":  {{Kind: KindSlice, Track: 3, Tag: 1, Start: 1, End: 2.5, V1: 1.5, N: 4, Flag: true}},
		"single":       {hostileSpan(r)},
	}
	random := make([]Span, 25000)
	for i := range random {
		random[i] = hostileSpan(r)
	}
	streams["random"] = random
	for label, spans := range streams {
		got, want, gotErr, wantErr := encodeBoth(t, spans)
		if gotErr != nil || wantErr != nil {
			t.Fatalf("%s: finite stream rejected: encoder %v, oracle %v", label, gotErr, wantErr)
		}
		requireSameBytes(t, label, got, want)
		if !json.Valid(got) {
			t.Fatalf("%s: output is not valid JSON", label)
		}
	}
	// One stream per span too, so a divergence names its span.
	for i, s := range random[:4000] {
		got, want, _, _ := encodeBoth(t, []Span{s})
		requireSameBytes(t, fmt.Sprintf("span %d %+v", i, s), got, want)
	}
}

// TestWritePerfettoNonFinite: a value with no JSON encoding is an error
// from the encoder exactly when it is one from encoding/json, and the
// encoder then writes nothing — never a truncated or invalid document.
// End is never serialized itself: a NaN or -Inf End fails the interval
// test, so both encoders emit the span as an instant.
func TestWritePerfettoNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	base := Span{Kind: KindSlice, Track: 0, Tag: 1, Start: 1, End: 2, V1: 0.5, V2: 0.25}
	with := func(edit func(*Span)) Span { s := base; edit(&s); return s }
	cases := []struct {
		name    string
		span    Span
		wantErr bool
	}{
		{"finite", base, false},
		{"Start NaN", with(func(s *Span) { s.Start = nan }), true},
		{"Start +Inf", with(func(s *Span) { s.Start = inf }), true},
		{"Start -Inf", with(func(s *Span) { s.Start = -inf }), true},
		{"Start overflows in us", with(func(s *Span) { s.Start, s.End = 1e305, 1e305 }), true},
		{"End +Inf", with(func(s *Span) { s.End = inf }), true},
		{"End overflows in us", with(func(s *Span) { s.End = 1e305 }), true},
		{"End NaN", with(func(s *Span) { s.End = nan }), false},
		{"End -Inf", with(func(s *Span) { s.End = -inf }), false},
		{"V1 NaN", with(func(s *Span) { s.V1 = nan }), true},
		{"V1 +Inf", with(func(s *Span) { s.V1 = inf }), true},
		{"V1 -Inf", with(func(s *Span) { s.V1 = -inf }), true},
		{"V2 NaN", with(func(s *Span) { s.V2 = nan }), true},
		{"V2 +Inf", with(func(s *Span) { s.V2 = inf }), true},
		{"V2 -Inf", with(func(s *Span) { s.V2 = -inf }), true},
	}
	for _, tc := range cases {
		// The hostile span sits mid-stream, after valid output is due.
		got, want, gotErr, wantErr := encodeBoth(t, []Span{base, tc.span, base})
		if (gotErr != nil) != tc.wantErr || (wantErr != nil) != tc.wantErr {
			t.Errorf("%s: encoder error %v, oracle error %v, want error: %v", tc.name, gotErr, wantErr, tc.wantErr)
			continue
		}
		if tc.wantErr {
			if len(got) != 0 {
				t.Errorf("%s: encoder wrote %d bytes before failing: %s", tc.name, len(got), got)
			}
			continue
		}
		requireSameBytes(t, tc.name, got, want)
		if !json.Valid(got) {
			t.Errorf("%s: output is not valid JSON: %s", tc.name, got)
		}
	}
}

// failingWriter fails every write.
type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, io.ErrClosedPipe }

// TestWritePerfettoAllocs pins the encoder's allocation profile: a
// constant handful (the output buffer and its flush closure) however
// long the stream — no per-span event tree — and a write failure
// surfaces as the error.
func TestWritePerfettoAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	spans := make([]Span, 100000)
	for i := range spans {
		spans[i] = hostileSpan(r)
		if spans[i].Kind > KindDrain {
			spans[i].Kind = KindSlice // an unknown kind's name is formatted, not a constant
		}
	}
	measure := func(n int) float64 {
		return testing.AllocsPerRun(3, func() {
			if err := WritePerfetto(io.Discard, spans[:n]); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := measure(1000), measure(100000)
	if small != large || large > 4 {
		t.Fatalf("WritePerfetto allocates %.0f objects for 1k spans and %.0f for 100k, want one constant <= 4", small, large)
	}
	if err := WritePerfetto(failingWriter{}, spans); err == nil {
		t.Fatal("write failure swallowed")
	}
}
