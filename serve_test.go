package fasttts_test

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"fasttts"
)

func testServeConfig() fasttts.Config {
	return fasttts.Config{
		Pair:     fasttts.Pair1_5B1_5B,
		NumBeams: 8,
		Seed:     42,
	}
}

func loadServeProblems(t *testing.T, n int) []*fasttts.Problem {
	t.Helper()
	aime, err := fasttts.LoadDataset("AIME24", 7)
	if err != nil {
		t.Fatal(err)
	}
	short, err := fasttts.LoadDataset("MATH500", 7)
	if err != nil {
		t.Fatal(err)
	}
	var out []*fasttts.Problem
	for i := 0; len(out) < n; i++ {
		out = append(out, aime.Problems[i%len(aime.Problems)])
		if len(out) < n {
			out = append(out, short.Problems[i])
		}
	}
	return out
}

// TestServeConfigPolicies drives each policy through the public API and
// checks the served stream and its aggregates are well-formed.
func TestServeConfigPolicies(t *testing.T) {
	probs := loadServeProblems(t, 8)
	reqs := fasttts.PoissonRequests(probs, 0.5, 11)
	for _, policy := range []string{"", "fcfs", "sjf", "priority", "deadline"} {
		srv, err := fasttts.NewServerWith(fasttts.ServeConfig{
			Config: testServeConfig(), Policy: policy, SLOLatency: 120,
		})
		if err != nil {
			t.Fatalf("policy %q: %v", policy, err)
		}
		served, err := srv.Run(reqs)
		if err != nil {
			t.Fatalf("policy %q: %v", policy, err)
		}
		if len(served) != len(reqs) {
			t.Fatalf("policy %q: served %d of %d", policy, len(served), len(reqs))
		}
		for i, sv := range served {
			if sv.Rejected || sv.Result == nil {
				t.Fatalf("policy %q: request %d rejected or missing result", policy, i)
			}
			if sv.StartTime < sv.ArrivalTime {
				t.Errorf("policy %q: request %d started before arrival", policy, i)
			}
			if got := sv.FinishTime - sv.ArrivalTime; math.Abs(sv.WallLatency-got) > 1e-12 {
				t.Errorf("policy %q: wall latency %v != finish-arrival %v", policy, sv.WallLatency, got)
			}
		}
		st := srv.Stats(served)
		if st.Served != len(reqs) || st.Rejected != 0 {
			t.Errorf("policy %q: stats served/rejected %d/%d", policy, st.Served, st.Rejected)
		}
		if st.P50Latency > st.P95Latency || st.P95Latency > st.P99Latency {
			t.Errorf("policy %q: percentiles not ordered: %+v", policy, st)
		}
		if st.SLOAttainment < 0 || st.SLOAttainment > 1 {
			t.Errorf("policy %q: SLO attainment %v outside [0,1]", policy, st.SLOAttainment)
		}
		if st.Goodput <= 0 {
			t.Errorf("policy %q: non-positive goodput", policy)
		}
	}

	if _, err := fasttts.NewServerWith(fasttts.ServeConfig{Config: testServeConfig(), Policy: "lifo"}); err == nil {
		t.Error("unknown policy accepted")
	}
}

// TestServeAdmissionControl sheds load beyond MaxInFlight.
func TestServeAdmissionControl(t *testing.T) {
	probs := loadServeProblems(t, 6)
	srv, err := fasttts.NewServerWith(fasttts.ServeConfig{
		Config: testServeConfig(), MaxInFlight: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]fasttts.Request, len(probs))
	for i, p := range probs {
		reqs[i] = fasttts.Request{Problem: p} // simultaneous burst
	}
	served, err := srv.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	st := srv.Stats(served)
	if st.Served != 2 || st.Rejected != 4 {
		t.Errorf("served/rejected = %d/%d, want 2/4", st.Served, st.Rejected)
	}
}

// TestNonFiniteTimesRejected: a NaN or infinite arrival or think time,
// or a request without a problem, makes every entry point return an
// error. Each call runs under its own
// deadline, because the failure this guards against is a hang (the event
// loop never reaches a NaN wake time) or, for +Inf on a fleet, results
// that the stats silently drop.
func TestNonFiniteTimesRejected(t *testing.T) {
	probs := loadServeProblems(t, 3)
	srv, err := fasttts.NewServer(testServeConfig())
	if err != nil {
		t.Fatal(err)
	}
	cl, err := fasttts.NewCluster(fasttts.ClusterConfig{Devices: []fasttts.DeviceSpec{
		{Config: testServeConfig()}, {Config: testServeConfig()},
	}})
	if err != nil {
		t.Fatal(err)
	}
	withArrival := func(at float64) []fasttts.Request {
		reqs := fasttts.PoissonRequests(probs, 0.5, 11)
		reqs[1].ArrivalTime = at
		return reqs
	}
	type row struct {
		name string
		call func() error
	}
	var rows []row
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		rows = append(rows,
			row{fmt.Sprintf("Server.Run arrival %v", v), func() error { _, err := srv.Run(withArrival(v)); return err }},
			row{fmt.Sprintf("Cluster.Run arrival %v", v), func() error { _, err := cl.Run(withArrival(v)); return err }})
	}
	for _, v := range []float64{math.NaN(), math.Inf(1)} {
		rows = append(rows, row{fmt.Sprintf("RunClosedLoop think %v", v),
			func() error { _, err := srv.RunClosedLoop(probs, 2, v); return err }})
	}
	// A request without a problem is hostile input of the same kind.
	noProblem := func(p *fasttts.Problem) []fasttts.Request {
		reqs := fasttts.PoissonRequests(probs, 0.5, 11)
		reqs[1].Problem = p
		return reqs
	}
	for _, bad := range []struct {
		name string
		p    *fasttts.Problem
	}{{"nil", nil}, {"zero", &fasttts.Problem{}}} {
		name, p := bad.name, bad.p
		rows = append(rows,
			row{"Server.Run problem " + name, func() error { _, err := srv.Run(noProblem(p)); return err }},
			row{"Cluster.Run problem " + name, func() error { _, err := cl.Run(noProblem(p)); return err }},
			row{"RunClosedLoop problem " + name, func() error {
				_, err := srv.RunClosedLoop([]*fasttts.Problem{probs[0], p}, 2, 0)
				return err
			}})
	}
	for _, tc := range rows {
		t.Run(tc.name, func(t *testing.T) {
			done := make(chan error, 1)
			go func() {
				defer func() {
					if p := recover(); p != nil {
						t.Errorf("panicked: %v", p)
						done <- nil
					}
				}()
				done <- tc.call()
			}()
			select {
			case err := <-done:
				if err == nil {
					t.Error("accepted the request")
				} else if strings.Contains(tc.name, "problem") && !strings.Contains(err.Error(), " 1 ") {
					t.Errorf("error %q does not name request 1", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("did not return within 10s")
			}
		})
	}
}

// TestServeClosedLoop runs the fixed-concurrency loop via the public API.
func TestServeClosedLoop(t *testing.T) {
	probs := loadServeProblems(t, 6)
	srv, err := fasttts.NewServer(testServeConfig())
	if err != nil {
		t.Fatal(err)
	}
	served, err := srv.RunClosedLoop(probs, 2, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(served) != len(probs) {
		t.Fatalf("served %d of %d", len(served), len(probs))
	}
}
