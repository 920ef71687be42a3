package fasttts

// Golden-trace conformance: every named scenario is replayed on both
// targets and must reproduce its committed trace bit-identically — the
// serving stack is a deterministic simulation, so exact match is the
// contract, and any hot-path change that alters behavior fails here
// before it reaches a benchmark. Regenerate the goldens after an
// *intentional* behavior change with `make golden` (go test -run
// TestGoldenScenarioTraces -update .) and review the diff like code.

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"fasttts/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata/golden scenario traces")

func goldenPath(name string, target ScenarioTarget) string {
	return filepath.Join("testdata", "golden", fmt.Sprintf("%s.%s.jsonl", name, target))
}

func TestGoldenScenarioTraces(t *testing.T) {
	for _, info := range Scenarios() {
		for _, target := range []ScenarioTarget{ScenarioServer, ScenarioCluster} {
			info, target := info, target
			t.Run(fmt.Sprintf("%s/%s", info.Name, target), func(t *testing.T) {
				run, err := RunScenario(info.Name, ScenarioOptions{Target: target})
				if err != nil {
					t.Fatal(err)
				}
				got, err := run.TraceJSONL()
				if err != nil {
					t.Fatal(err)
				}
				path := goldenPath(info.Name, target)
				if *updateGolden {
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, got, 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden trace %s (run `make golden` and commit the result): %v", path, err)
				}
				if ok, detail := conform(got, want); !ok {
					t.Fatalf("replay diverges from %s: %s", path, detail)
				}
			})
		}
	}
}

// TestGoldenTracesDecodable keeps the committed corpus well-formed: every
// golden file must decode, carry the current schema, and agree with its
// filename.
func TestGoldenTracesDecodable(t *testing.T) {
	if *updateGolden {
		t.Skip("regenerating goldens")
	}
	paths, err := filepath.Glob(filepath.Join("testdata", "golden", "*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * len(Scenarios()); len(paths) != want {
		t.Fatalf("found %d golden traces, want %d (scenario catalog × both targets)", len(paths), want)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := trace.DecodeJSONL(data)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if got := goldenPath(tr.Scenario, ScenarioTarget(tr.Target)); got != path {
			t.Errorf("%s: header names %s/%s, expected filename %s", path, tr.Scenario, tr.Target, got)
		}
		if len(tr.Records) != tr.Requests {
			t.Errorf("%s: %d records for a %d-request stream", path, len(tr.Records), tr.Requests)
		}
		if tr.Stats.Served+tr.Stats.Rejected != tr.Requests {
			t.Errorf("%s: served %d + rejected %d != %d submitted", path, tr.Stats.Served, tr.Stats.Rejected, tr.Requests)
		}
	}
}

// TestScenarioRunDeterministic asserts the replay property the golden
// harness relies on, independent of any committed file: equal options
// give bit-identical trace bytes.
func TestScenarioRunDeterministic(t *testing.T) {
	for _, name := range []string{"diurnal", "fleet-churn"} {
		for _, target := range []ScenarioTarget{ScenarioServer, ScenarioCluster} {
			a, err := RunScenario(name, ScenarioOptions{Target: target, Requests: 10, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			b, err := RunScenario(name, ScenarioOptions{Target: target, Requests: 10, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			ab, _ := a.TraceJSONL()
			bb, _ := b.TraceJSONL()
			if !bytes.Equal(ab, bb) {
				t.Errorf("%s/%s: equal options gave unequal traces", name, target)
			}
			c, err := RunScenario(name, ScenarioOptions{Target: target, Requests: 10, Seed: 8})
			if err != nil {
				t.Fatal(err)
			}
			cb, _ := c.TraceJSONL()
			if bytes.Equal(ab, cb) {
				t.Errorf("%s/%s: seeds 7 and 8 gave identical traces", name, target)
			}
		}
	}
}

// conform is the golden-trace verdict of the conformance tests: byte
// equality is the contract; on divergence both sides are decoded so the
// detail names the first divergent field rather than a byte offset.
func conform(got, want []byte) (ok bool, detail string) {
	if bytes.Equal(got, want) {
		return true, ""
	}
	gotTr, gerr := trace.DecodeJSONL(got)
	wantTr, werr := trace.DecodeJSONL(want)
	if gerr != nil || werr != nil {
		return false, fmt.Sprintf("bytes diverge (decode got: %v, want: %v)", gerr, werr)
	}
	if err := trace.Diff(gotTr, wantTr); err != nil {
		return false, err.Error()
	}
	return false, "field-identical but bytes differ (non-canonical encoding)"
}
