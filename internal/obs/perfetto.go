package obs

import (
	"fmt"
	"io"
	"math"
	"strconv"
)

// WritePerfetto serializes a span stream as Chrome trace-event JSON,
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing. Virtual
// seconds map to trace microseconds. Each device gets its own thread
// lane (tid = device+1); the control plane is tid 0. The output is
// byte-deterministic: identical span streams produce identical files.
//
// The schema is fixed, so events are appended field by field into one
// reused buffer instead of going through an event tree and reflection;
// the bytes are what encoding/json emits for the equivalent struct tree
// (perfetto_oracle_test.go holds that tree and pins the equality). A
// non-finite timestamp, duration or payload is an error, reported
// before anything is written — never invalid JSON.
func WritePerfetto(w io.Writer, spans []Span) error {
	// Thread-name metadata: control plane plus every device track seen.
	maxDev := -1
	seenControl := false
	for i := range spans {
		s := &spans[i]
		if s.Track == ControlTrack {
			seenControl = true
		} else if s.Track > maxDev {
			maxDev = s.Track
		}
		ts, dur := perfettoTimes(s)
		if !finite(ts) || !finite(dur) || !finite(s.V1) || !finite(s.V2) {
			return fmt.Errorf("obs: span %d (%s, track %d, tag %d): non-finite value (ts %v us, dur %v us, v1 %v, v2 %v) has no JSON encoding",
				i, s.Kind, s.Track, s.Tag, ts, dur, s.V1, s.V2)
		}
	}

	// Events append to one buffer, written out whenever it passes
	// perfettoFlush; the first write error stops the writing and is
	// returned.
	var werr error
	b := make([]byte, 0, perfettoFlush+512)
	flush := func() {
		if werr == nil {
			_, werr = w.Write(b)
		}
		b = b[:0]
	}
	b = append(b, `{"traceEvents":[`...)
	sep := "" // "," once the first event is out
	if seenControl {
		b = append(b, `{"name":"thread_name","ph":"M","ts":0,"pid":0,"tid":0,"args":{"name":"control plane"}}`...)
		sep = ","
	}
	for d := 0; d <= maxDev; d++ {
		b = append(b, sep...)
		sep = ","
		b = append(b, `{"name":"thread_name","ph":"M","ts":0,"pid":0,"tid":`...)
		b = strconv.AppendInt(b, int64(d)+1, 10)
		b = append(b, `,"args":{"name":"device `...)
		b = strconv.AppendInt(b, int64(d), 10)
		b = append(b, `"}}`...)
		if len(b) >= perfettoFlush {
			flush()
		}
	}

	for i := range spans {
		s := &spans[i]
		scoped := s.Kind.requestScoped()
		ts, dur := perfettoTimes(s)
		interval := s.End > s.Start
		b = append(b, sep...)
		sep = ","
		b = append(b, `{"name":"`...)
		b = append(b, s.Kind.String()...)
		if scoped {
			b = append(b, " #"...)
			b = strconv.AppendInt(b, int64(s.Tag), 10)
		}
		if interval {
			b = append(b, `","ph":"X","ts":`...)
			b = appendJSONFloat(b, ts)
			b = append(b, `,"dur":`...)
			b = appendJSONFloat(b, dur)
		} else {
			b = append(b, `","ph":"i","ts":`...)
			b = appendJSONFloat(b, ts)
		}
		b = append(b, `,"pid":0,"tid":`...)
		b = strconv.AppendInt(b, int64(s.Track)+1, 10) // ControlTrack (-1) -> 0
		if interval {
			b = append(b, `,"args":{`...)
		} else {
			b = append(b, `,"s":"t","args":{`...)
		}
		// Zero-valued payloads are left out, as omitempty does.
		n := len(b)
		if scoped {
			b = append(b, `"tag":`...)
			b = strconv.AppendInt(b, int64(s.Tag), 10)
			b = append(b, ',')
		}
		if s.V1 != 0 {
			b = append(b, `"v1":`...)
			b = appendJSONFloat(b, s.V1)
			b = append(b, ',')
		}
		if s.V2 != 0 {
			b = append(b, `"v2":`...)
			b = appendJSONFloat(b, s.V2)
			b = append(b, ',')
		}
		if s.N != 0 {
			b = append(b, `"n":`...)
			b = strconv.AppendInt(b, int64(s.N), 10)
			b = append(b, ',')
		}
		if s.Flag {
			b = append(b, `"flag":true,`...)
		}
		if len(b) > n {
			b = b[:len(b)-1] // trailing comma
		}
		b = append(b, "}}"...)
		if len(b) >= perfettoFlush {
			flush()
		}
	}
	b = append(b, "],\"displayTimeUnit\":\"ms\"}\n"...)
	flush()
	return werr
}

// perfettoFlush is the buffered output size WritePerfetto writes at.
const perfettoFlush = 64 << 10

// perfettoTimes maps a span's interval to trace microseconds: the
// timestamp, and the duration of an interval span (0 for an instant).
func perfettoTimes(s *Span) (ts, dur float64) {
	if s.End > s.Start {
		dur = (s.End - s.Start) * 1e6
	}
	return s.Start * 1e6, dur
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// appendJSONFloat appends a finite f as encoding/json formats a
// float64: the shortest representation that round-trips, in 'e' form
// below 1e-6 and from 1e21, with a two-digit negative exponent's
// leading zero dropped (e-09 becomes e-9).
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}
