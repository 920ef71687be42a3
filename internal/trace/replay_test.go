package trace

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
)

func sampleTrace() *RunTrace {
	return &RunTrace{
		Scenario: "diurnal",
		Target:   "cluster",
		Seed:     42,
		Requests: 3,
		Records: []Record{
			{ID: 0, Arrival: 0.5, Start: 0.5, Finish: 12.25, Queue: 0, Wall: 11.75, Slices: 9, Tokens: 4210, Device: 0},
			{ID: 2, Arrival: 1.75, Start: 1.75, Finish: 1.75, Rejected: true, Device: 1},
			{ID: 1, Arrival: 1.5, Start: 12.25, Finish: 30, Queue: 10.75, Wall: 28.5, Slices: 14, Tokens: 9000, Device: 0, Requeues: 1},
		},
		Stats: RunStats{
			Served: 2, Rejected: 1, Makespan: 30,
			MeanQueueDelay: 5.375, MaxQueueDelay: 10.75,
			MeanLatency: 20.125, P50Latency: 11.75, P95Latency: 28.5, P99Latency: 28.5,
			Goodput: 440.3333333333333, SLOAttainment: 1.0 / 3,
			ImbalanceCV: 0.2, Requeues: 1, PrefixHitRate: 0.5, FailedDevices: 1,
		},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tr := sampleTrace()
	data, err := tr.EncodeJSONL()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeJSONL(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, back) {
		t.Fatalf("round trip changed the trace:\n got %+v\nwant %+v", back, tr)
	}
	if err := Diff(back, tr); err != nil {
		t.Fatalf("Diff on round-tripped trace: %v", err)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	a, err := sampleTrace().EncodeJSONL()
	if err != nil {
		t.Fatal(err)
	}
	b, err := sampleTrace().EncodeJSONL()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("equal traces encoded to unequal bytes")
	}
}

func TestEncodeLayout(t *testing.T) {
	data, err := sampleTrace().EncodeJSONL()
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) != 5 { // header + 3 records + stats
		t.Fatalf("encoded %d lines, want 5:\n%s", len(lines), data)
	}
	if !strings.Contains(lines[0], `"schema":"`+Schema+`"`) {
		t.Errorf("header line %q lacks the schema tag", lines[0])
	}
	if !strings.HasPrefix(lines[len(lines)-1], `{"stats":`) {
		t.Errorf("last line %q is not the stats block", lines[len(lines)-1])
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	good, _ := sampleTrace().EncodeJSONL()
	lines := strings.SplitAfter(string(good), "\n")
	cases := map[string]string{
		"empty":              "",
		"bad header":         "not json\n",
		"wrong schema":       `{"schema":"fasttts-trace/v0"}` + "\n",
		"missing stats":      strings.Join(lines[:len(lines)-2], ""),
		"record after stats": string(good) + lines[1],
		"garbage record":     lines[0] + "{{{\n" + lines[len(lines)-2],
	}
	for name, data := range cases {
		if _, err := DecodeJSONL([]byte(data)); err == nil {
			t.Errorf("%s: decode did not error", name)
		}
	}
}

func TestDecodeSkipsBlankLines(t *testing.T) {
	good, _ := sampleTrace().EncodeJSONL()
	padded := strings.ReplaceAll(string(good), "\n", "\n\n")
	back, err := DecodeJSONL([]byte(padded))
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Records) != 3 {
		t.Fatalf("decoded %d records from padded trace, want 3", len(back.Records))
	}
}

func TestDiffReportsFirstDivergence(t *testing.T) {
	base := sampleTrace()
	cases := []struct {
		name   string
		mutate func(*RunTrace)
		want   string
	}{
		{"scenario", func(t *RunTrace) { t.Scenario = "steady" }, "scenario"},
		{"target", func(t *RunTrace) { t.Target = "server" }, "target"},
		{"seed", func(t *RunTrace) { t.Seed = 7 }, "seed"},
		{"length", func(t *RunTrace) { t.Records = t.Records[:1] }, "records"},
		{"record float", func(t *RunTrace) { t.Records[1].Wall += 1e-9 }, "Wall"},
		{"record flag", func(t *RunTrace) { t.Records[1].Rejected = false }, "Rejected"},
		{"stats", func(t *RunTrace) { t.Stats.Goodput *= 1.0000001 }, "Goodput"},
	}
	for _, tc := range cases {
		got := sampleTrace()
		tc.mutate(got)
		err := Diff(got, base)
		if err == nil {
			t.Errorf("%s: Diff found no divergence", tc.name)
			continue
		}
		if !strings.Contains(strings.ToLower(err.Error()), strings.ToLower(tc.want)) {
			t.Errorf("%s: Diff error %q does not name %q", tc.name, err, tc.want)
		}
	}
	if err := Diff(sampleTrace(), base); err != nil {
		t.Errorf("identical traces diff: %v", err)
	}
}

func TestDiffTreatsNaNPairsAsEqual(t *testing.T) {
	a, b := sampleTrace(), sampleTrace()
	a.Stats.Goodput = math.NaN()
	b.Stats.Goodput = math.NaN()
	b.Stats.FailedDevices = 2
	err := Diff(a, b)
	if err == nil {
		t.Fatal("expected divergence on FailedDevices")
	}
	if !strings.Contains(err.Error(), "FailedDevices") {
		t.Errorf("Diff stopped at the NaN pair instead of the real divergence: %v", err)
	}
}
