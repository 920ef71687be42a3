package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata CLI output goldens")

// goldenFleet is the fleet both CLI goldens serve on: three GPUs behind
// least-work routing, a threshold controller over a two-instance warm
// pool, per-device KV planes and the attribution rollup.
var goldenFleet = []string{
	"-devices", "RTX 4090,RTX 4070 Ti,RTX 3070 Ti", "-router", "least-work",
	"-controller", "threshold", "-warm", "RTX 4090,RTX 4090", "-kv-plane", "-attr",
}

// TestServeCLIGolden pins fastttsserve's output byte for byte: the -json
// report (every field name and order of the fleet, per-device, control
// and attribution stats) with a fail-stop and a straggler, and the -v
// text report (action log, warm-pool instance names, per-device table,
// attribution table). Rewrite with
// `go test ./cmd/fastttsserve -run TestServeCLIGolden -update`.
func TestServeCLIGolden(t *testing.T) {
	for _, tc := range []struct {
		file string
		args []string
	}{
		{"fleet-json.golden", []string{"-n", "24", "-control-interval", "20", "-slo", "120", "-json", "-fail", "2:200", "-slow", "1:3"}},
		{"fleet-verbose.golden", []string{"-n", "40", "-rate", "2", "-control-interval", "10", "-slo", "60", "-v"}},
	} {
		t.Run(tc.file, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(append(append([]string(nil), goldenFleet...), tc.args...), &out); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", tc.file)
			if *updateGolden {
				if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (rewrite with -update)", err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, out.Bytes(), want)
			}
		})
	}
}
