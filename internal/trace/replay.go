package trace

// Record/replay for whole served streams: a RunTrace captures every
// request's queueing telemetry plus the run's aggregate metrics in a
// canonical JSONL form. Because the serving stack is a deterministic
// simulation, replaying a scenario must reproduce its RunTrace
// bit-identically — encoded bytes and all — which is the contract the
// golden-regression harness (testdata/golden, make golden) enforces.
//
// The JSONL layout is one header object (schema, scenario, target, seed,
// stream length), one object per served request in result order, and one
// trailing {"stats": ...} object. Every float is written by Go's
// shortest-round-trip formatter, so equal runs give equal bytes.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
)

// Schema identifies the canonical trace layout; bump on any change to
// the Record/RunStats wire shape.
const Schema = "fasttts-trace/v1"

// Record is the canonical telemetry of one served request.
type Record struct {
	// ID is the request's position in the submitted stream.
	ID int `json:"id"`
	// Arrival, Start, and Finish are on the serving clock; Queue and Wall
	// are the derived queueing delay and wall latency.
	Arrival float64 `json:"arrival"`
	Start   float64 `json:"start"`
	Finish  float64 `json:"finish"`
	Queue   float64 `json:"queue"`
	Wall    float64 `json:"wall"`
	// Slices counts device slices; Tokens is the useful generated output.
	Slices int   `json:"slices"`
	Tokens int64 `json:"tokens"`
	// Rejected marks requests shed by admission control (or lost capacity).
	Rejected bool `json:"rejected"`
	// Device is the fleet index of the serving device (0 on a single
	// server, -1 for fleet-wide lost capacity); Requeues counts
	// failure-induced migrations.
	Device   int `json:"device"`
	Requeues int `json:"requeues"`
}

// RunStats is the canonical aggregate block of a trace: the server-level
// aggregates, plus the fleet-only fields (zero on single-server runs).
type RunStats struct {
	Served         int     `json:"served"`
	Rejected       int     `json:"rejected"`
	Makespan       float64 `json:"makespan"`
	MeanQueueDelay float64 `json:"mean_queue_delay"`
	MaxQueueDelay  float64 `json:"max_queue_delay"`
	MeanLatency    float64 `json:"mean_latency"`
	P50Latency     float64 `json:"p50_latency"`
	P95Latency     float64 `json:"p95_latency"`
	P99Latency     float64 `json:"p99_latency"`
	Goodput        float64 `json:"goodput"`
	SLOAttainment  float64 `json:"slo_attainment"`
	ImbalanceCV    float64 `json:"imbalance_cv"`
	Requeues       int     `json:"requeues"`
	PrefixHitRate  float64 `json:"prefix_hit_rate"`
	FailedDevices  int     `json:"failed_devices"`
}

// RunTrace is one captured served stream.
type RunTrace struct {
	// Scenario and Target name the run ("diurnal", "server"/"cluster");
	// Seed and Requests pin its parameters.
	Scenario string
	Target   string
	Seed     uint64
	Requests int
	Records  []Record
	Stats    RunStats
}

// header is the first JSONL line.
type header struct {
	Schema   string `json:"schema"`
	Scenario string `json:"scenario"`
	Target   string `json:"target"`
	Seed     uint64 `json:"seed"`
	Requests int    `json:"requests"`
}

// statsLine is the last JSONL line.
type statsLine struct {
	Stats *RunStats `json:"stats"`
}

// EncodeJSONL renders the trace in canonical JSONL. Equal traces encode
// to equal bytes.
func (t *RunTrace) EncodeJSONL() ([]byte, error) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	if err := enc.Encode(header{
		Schema: Schema, Scenario: t.Scenario, Target: t.Target,
		Seed: t.Seed, Requests: t.Requests,
	}); err != nil {
		return nil, fmt.Errorf("trace: encoding header: %w", err)
	}
	for i := range t.Records {
		if err := enc.Encode(&t.Records[i]); err != nil {
			return nil, fmt.Errorf("trace: encoding record %d: %w", i, err)
		}
	}
	stats := t.Stats
	if err := enc.Encode(statsLine{Stats: &stats}); err != nil {
		return nil, fmt.Errorf("trace: encoding stats: %w", err)
	}
	return b.Bytes(), nil
}

// DecodeJSONL parses a canonical JSONL trace.
func DecodeJSONL(data []byte) (*RunTrace, error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	if !sc.Scan() {
		return nil, fmt.Errorf("trace: empty trace")
	}
	var h header
	if err := json.Unmarshal(sc.Bytes(), &h); err != nil {
		return nil, fmt.Errorf("trace: parsing header: %w", err)
	}
	if h.Schema != Schema {
		return nil, fmt.Errorf("trace: schema %q, want %q", h.Schema, Schema)
	}
	t := &RunTrace{Scenario: h.Scenario, Target: h.Target, Seed: h.Seed, Requests: h.Requests}
	sawStats := false
	for line := 2; sc.Scan(); line++ {
		raw := sc.Bytes()
		if len(bytes.TrimSpace(raw)) == 0 {
			continue
		}
		if sawStats {
			return nil, fmt.Errorf("trace: line %d: content after the stats line", line)
		}
		var sl statsLine
		if err := json.Unmarshal(raw, &sl); err == nil && sl.Stats != nil {
			t.Stats = *sl.Stats
			sawStats = true
			continue
		}
		var rec Record
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		t.Records = append(t.Records, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: reading trace: %w", err)
	}
	if !sawStats {
		return nil, fmt.Errorf("trace: missing stats line")
	}
	return t, nil
}

// Diff compares two traces field-by-field (floats exactly — the sim is
// deterministic, so exact match is the contract) and returns a
// description of the first divergence, or nil when identical.
func Diff(got, want *RunTrace) error {
	switch {
	case got.Scenario != want.Scenario:
		return fmt.Errorf("scenario %q, want %q", got.Scenario, want.Scenario)
	case got.Target != want.Target:
		return fmt.Errorf("target %q, want %q", got.Target, want.Target)
	case got.Seed != want.Seed:
		return fmt.Errorf("seed %d, want %d", got.Seed, want.Seed)
	case got.Requests != want.Requests:
		return fmt.Errorf("stream length %d, want %d", got.Requests, want.Requests)
	case len(got.Records) != len(want.Records):
		return fmt.Errorf("%d records, want %d", len(got.Records), len(want.Records))
	}
	for i := range got.Records {
		if err := diffStruct(got.Records[i], want.Records[i]); err != nil {
			return fmt.Errorf("record %d (request %d): %w", i, want.Records[i].ID, err)
		}
	}
	if err := diffStruct(got.Stats, want.Stats); err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	return nil
}

// diffStruct reports the first differing exported field of two equal-type
// structs, by name — a structured alternative to reflect.DeepEqual's
// bare false.
func diffStruct(got, want any) error {
	gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < gv.NumField(); i++ {
		g, w := gv.Field(i).Interface(), wv.Field(i).Interface()
		if g != w && !bothNaN(g, w) {
			return fmt.Errorf("%s = %v, want %v", gv.Type().Field(i).Name, g, w)
		}
	}
	return nil
}

// bothNaN treats two NaNs as equal so a corrupted-but-stable golden
// still diffs on the first *divergent* field rather than on NaN != NaN.
func bothNaN(a, b any) bool {
	af, aok := a.(float64)
	bf, bok := b.(float64)
	return aok && bok && math.IsNaN(af) && math.IsNaN(bf)
}
