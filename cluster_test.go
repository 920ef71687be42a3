package fasttts

import (
	"math"
	"reflect"
	"testing"
)

func clusterProblems(t *testing.T, n, distinct int) []*Problem {
	t.Helper()
	ds, err := LoadDataset("AMC23", 7)
	if err != nil {
		t.Fatal(err)
	}
	probs := make([]*Problem, n)
	for i := range probs {
		probs[i] = ds.Problems[i%distinct]
	}
	return probs
}

func fleetSpec(gpu string, seed uint64) DeviceSpec {
	return DeviceSpec{Config: Config{GPU: gpu, NumBeams: 8, Seed: seed}}
}

// TestClusterSingleDeviceMatchesServer: the PR 1 equivalence anchor at
// the public API — a 1-device cluster with the pass-through router
// reproduces Server's served stream exactly.
func TestClusterSingleDeviceMatchesServer(t *testing.T) {
	cfg := Config{GPU: "RTX 4090", NumBeams: 8, Seed: 42}
	reqs := PoissonRequests(clusterProblems(t, 6, 6), 0.5, 11)

	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := srv.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}

	cl, err := NewCluster(ClusterConfig{
		Devices: []DeviceSpec{{Config: cfg}},
		Router:  "single",
	})
	if err != nil {
		t.Fatal(err)
	}
	run, err := cl.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Results) != len(want) {
		t.Fatalf("cluster served %d results, server %d", len(run.Results), len(want))
	}
	for i, r := range run.Results {
		if r.Device != 0 || r.Requeues != 0 {
			t.Errorf("result %d: device %d requeues %d, want 0 and 0", i, r.Device, r.Requeues)
		}
		if !reflect.DeepEqual(r.ServedResult, want[i]) {
			t.Errorf("result %d differs from the single-Server stream", i)
		}
	}
	// The merged-stream aggregates must match the server's too.
	if st, sst := run.Stats().ServeStats, srv.Stats(want); !reflect.DeepEqual(st, sst) {
		t.Errorf("fleet ServeStats %+v != server stats %+v", st, sst)
	}
}

// TestClusterHeterogeneousFleet smoke-tests the full public surface: a
// heterogeneous 3-device fleet with a straggler and a fail-stop, served
// under prefix-affinity routing, is deterministic and internally
// consistent.
func TestClusterHeterogeneousFleet(t *testing.T) {
	cc := ClusterConfig{
		Devices: []DeviceSpec{
			fleetSpec("RTX 4090", 42),
			{Config: Config{GPU: "RTX 4070 Ti", NumBeams: 8, Seed: 43}, Policy: "sjf", Slowdown: 2},
			{Config: Config{GPU: "RTX 3070 Ti", NumBeams: 8, Seed: 44}, FailAt: 40},
		},
		Router:     "prefix",
		Seed:       9,
		SLOLatency: 120,
	}
	reqs := PoissonRequests(clusterProblems(t, 12, 4), 0.4, 11)

	cl, err := NewCluster(cc)
	if err != nil {
		t.Fatal(err)
	}
	run := func() *FleetRun {
		fr, err := cl.Run(reqs)
		if err != nil {
			t.Fatal(err)
		}
		return fr
	}
	// Every Run builds a fresh fleet, the stateful router included, so
	// reusing the Cluster repeats the run bit for bit.
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Error("a reused cluster gave different fleet runs")
	}

	st := a.Stats()
	if st.Served+st.Rejected != len(reqs) {
		t.Errorf("served %d + rejected %d != %d submitted", st.Served, st.Rejected, len(reqs))
	}
	if len(st.PerDevice) != 3 {
		t.Fatalf("%d device stats, want 3", len(st.PerDevice))
	}
	var busy float64
	for _, d := range st.PerDevice {
		if d.Utilization < 0 || d.Utilization > 1+1e-9 {
			t.Errorf("device %d utilization %v outside [0,1]", d.Device, d.Utilization)
		}
		busy += d.BusyTime
	}
	if busy <= 0 {
		t.Error("fleet did no work")
	}
	if st.FailedDevices != 1 {
		t.Errorf("failed devices %d, want 1", st.FailedDevices)
	}
	if st.PrefixHitRate <= 0 {
		t.Errorf("prefix hit rate %v on repeat-heavy traffic, want > 0", st.PrefixHitRate)
	}
	if st.SLOAttainment < 0 || st.SLOAttainment > 1 {
		t.Errorf("SLO attainment %v outside [0,1]", st.SLOAttainment)
	}
}

// TestCacheAwareRoutingGainsUnderPressure is the KV memory plane's
// success metric on the cache-thrash few-shot stream (72 requests, seed
// 42): residency-aware routing (the better of cache-aware and prefix)
// beats load-only jsq on p99, and by more under tight 512 MiB planes than
// under 8 GiB planes where every prompt stays resident — locality pays
// only when memory is scarce. Under pressure cache-aware must also beat
// least-work, its twin without the re-prefill debt term.
func TestCacheAwareRoutingGainsUnderPressure(t *testing.T) {
	const tightPlane, roomyPlane = 512 << 20, 8 << 30
	p99 := func(planeBytes int64, router string) float64 {
		t.Helper()
		spec, err := buildScenario("cache-thrash", ScenarioOptions{Requests: 72, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		spec.cluster.Router = router
		for i := range spec.cluster.Devices {
			spec.cluster.Devices[i].KVPlaneBytes = planeBytes
		}
		run, err := spec.run(ScenarioCluster)
		if err != nil {
			t.Fatal(err)
		}
		return run.FleetStats.P99Latency
	}
	gain := func(planeBytes int64) float64 {
		return p99(planeBytes, "jsq") - math.Min(p99(planeBytes, "cache-aware"), p99(planeBytes, "prefix"))
	}
	tight, roomy := gain(tightPlane), gain(roomyPlane)
	t.Logf("p99 gain over jsq: %.2fs under 512 MiB planes, %.2fs under 8 GiB", tight, roomy)
	if tight <= 0 || tight <= roomy {
		t.Errorf("p99 gain over jsq is %.2fs under 512 MiB planes and %.2fs under 8 GiB; want > 0 and larger under pressure",
			tight, roomy)
	}
	if ca, lw := p99(tightPlane, "cache-aware"), p99(tightPlane, "least-work"); ca >= lw {
		t.Errorf("under 512 MiB planes cache-aware p99 %.2fs does not beat least-work's %.2fs", ca, lw)
	}
}

func TestNewClusterValidates(t *testing.T) {
	if _, err := NewCluster(ClusterConfig{}); err == nil {
		t.Error("NewCluster accepted an empty fleet")
	}
	if _, err := NewCluster(ClusterConfig{
		Devices: []DeviceSpec{fleetSpec("RTX 4090", 1)},
		Router:  "teleport",
	}); err == nil {
		t.Error("NewCluster accepted an unknown router")
	}
	if _, err := NewCluster(ClusterConfig{
		Devices: []DeviceSpec{{Config: Config{GPU: "TPU v5"}}},
	}); err == nil {
		t.Error("NewCluster accepted an unknown GPU")
	}
	if _, err := NewCluster(ClusterConfig{
		Devices: []DeviceSpec{{Config: Config{GPU: "RTX 4090"}, Policy: "lifo"}},
	}); err == nil {
		t.Error("NewCluster accepted an unknown device policy")
	}
}
