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
//
// Most floats skip strconv on two exact paths (floatMemo.append): an
// integral value of magnitude below 2^53, other than -0, is written as
// its integer digits, and any other value seen before in this call is
// copied from a fixed-size memo of its text. A timestamp equal to the previous span's, the common case,
// hits the memo slot that span just filled.
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
	var memo floatMemo
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
		tag0, tag1 := 0, 0 // the tag's digits, written once, copied into args
		if scoped {
			b = append(b, " #"...)
			tag0 = len(b)
			b = strconv.AppendInt(b, int64(s.Tag), 10)
			tag1 = len(b)
		}
		if interval {
			b = append(b, `","ph":"X","ts":`...)
			b = memo.append(b, ts)
			b = append(b, `,"dur":`...)
			b = memo.append(b, dur)
		} else {
			b = append(b, `","ph":"i","ts":`...)
			b = memo.append(b, ts)
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
			b = append(b, b[tag0:tag1]...)
			b = append(b, ',')
		}
		if s.V1 != 0 {
			b = append(b, `"v1":`...)
			b = memo.append(b, s.V1)
			b = append(b, ',')
		}
		if s.V2 != 0 {
			b = append(b, `"v2":`...)
			b = memo.append(b, s.V2)
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

// floatMemo is WritePerfetto's per-call table of float texts: direct
// mapped, keyed by the value's bits, so 0 and -0 stay distinct. A slot
// whose bits are 0 holds no text, which is never read: +0 is integral,
// so it takes the integer path and never reaches the table.
type floatMemo [1 << memoShift]struct {
	bits uint64
	n    uint8 // len of the text
	text [memoText]byte
}

const (
	memoShift = 10 // 1,024 slots
	memoText  = 23 // a slot is 32 bytes; longer text is formatted every time
)

// append appends f as appendJSONFloat does, by one of two exact paths
// where it can. An integral f with |f| < 2^53, other than -0, is written
// by strconv.AppendInt: a digit string shorter than f's is another
// integer, and every integer below 2^53 is a float64 that reads back as
// itself, so f's own digits are the shortest text that round-trips (from
// 2^53 on they need not be: encoding/json writes 2^60 as
// 1152921504606847000). Every other f is looked up in the memo by its
// bits, and formatted — and stored, when its text fits a slot — only on
// a miss, so a hit returns the very bytes strconv gave for that value.
func (m *floatMemo) append(b []byte, f float64) []byte {
	if i := int64(f); float64(i) == f && -1<<53 < i && i < 1<<53 && (i != 0 || !math.Signbit(f)) {
		return strconv.AppendInt(b, i, 10)
	}
	bits := math.Float64bits(f)
	e := &m[memoSlot(bits)]
	if e.bits == bits {
		return append(b, e.text[:e.n]...)
	}
	n := len(b)
	b = appendJSONFloat(b, f)
	if len(b)-n <= memoText {
		e.bits, e.n = bits, uint8(copy(e.text[:], b[n:]))
	}
	return b
}

// memoSlot is the memo slot of a float's bits (Fibonacci hashing).
func memoSlot(bits uint64) uint64 { return bits * 0x9e3779b97f4a7c15 >> (64 - memoShift) }
