package fasttts

// The solver-beam workload's shape on the public API: a benchmark to
// profile it (`make profile-solver`) and a pin on what a served request
// allocates.

import (
	"runtime"
	"testing"

	"fasttts/internal/perfctr"
)

// solverBeamStream is the solver-beam serving shape: the public Server in
// the paper's setting (one RTX 4090, 1.5B+1.5B, beam search n=64 B=4,
// FastTTS mode, FCFS) and n MATH500 requests 40 s apart, so requests rarely
// overlap and nearly every one runs on the server's recycled solver.
func solverBeamStream(tb testing.TB, n int) (ServeConfig, []Request) {
	tb.Helper()
	ds, err := LoadDataset("MATH500", 42)
	if err != nil {
		tb.Fatal(err)
	}
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{Problem: ds.Problems[i%len(ds.Problems)], ArrivalTime: 40 * float64(i)}
	}
	sc := ServeConfig{
		Config: Config{
			GPU: "RTX 4090", Pair: Pair1_5B1_5B, Algorithm: "Beam Search",
			NumBeams: 64, BranchFactor: 4, Mode: ModeFastTTS, Seed: 42,
		},
		Policy: "fcfs", SLOLatency: 60,
	}
	return sc, reqs
}

// serveFresh is one pass as a Server user runs it: a new server, one Run
// over the stream, then Stats.
func serveFresh(tb testing.TB, sc ServeConfig, reqs []Request) {
	tb.Helper()
	srv, err := NewServerWith(sc)
	if err != nil {
		tb.Fatal(err)
	}
	served, err := srv.Run(reqs)
	if err != nil || len(served) != len(reqs) {
		tb.Fatalf("served %d of %d, err %v", len(served), len(reqs), err)
	}
	if st := srv.Stats(served); st.Served != len(reqs) {
		tb.Fatalf("stats count %d served of %d", st.Served, len(reqs))
	}
}

// BenchmarkServerRunBeam64 is the solver-beam workload's pass at half its
// length: NewServerWith, Run and Stats over 500 MATH500 requests, so the
// fresh server's one-time pool growth is spread over nearly as many
// requests as in the workload, and the public result wrapping is measured
// with the rest. It reports allocs/req beside allocs/op. `make
// profile-solver` profiles it.
func BenchmarkServerRunBeam64(b *testing.B) {
	sc, reqs := solverBeamStream(b, 500)
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveFresh(b, sc, reqs)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N*len(reqs)), "allocs/req")
}

// BenchmarkCountSolver is `make count-solver`: the user-space
// instructions a request of BenchmarkServerRunBeam64's pass costs, the
// median of 8 passes on one locked thread with the garbage collector
// paused (internal/perfctr), and their spread. It skips, with the
// reason, where the counter cannot open.
func BenchmarkCountSolver(b *testing.B) {
	sc, reqs := solverBeamStream(b, 500)
	for i := 0; i < b.N; i++ {
		median, spread, err := perfctr.Count(8, func() { serveFresh(b, sc, reqs) })
		if err != nil {
			b.Skip(err)
		}
		b.ReportMetric(median/float64(len(reqs)), "instr/req")
		b.ReportMetric(spread, "spread")
	}
}

// TestServerRunAllocsPerRequest pins what a fresh public Server.Run pass
// allocates per served request in the solver-beam shape, the fresh server's
// pool growth included. A warm request allocates next to nothing: the
// search policy selects in the candidates' own storage, the engine's
// Results and their paths come from the run's result store in chunks, and
// the public Results from one batch per run, so what is left is the fresh
// server's pools growing, and the run's record of clean solves (its trace
// table, and traces and slice records in chunks). Over 200 requests the
// pass reads 13.8 (16.2 under -race, whose build keeps a few temporaries
// a plain build elides); 13.6 (16.0) before solves were recorded for
// replay. It read 19.6 while Select built a branch slice per selection round, and
// 22.3 while each request also allocated its engine Result and paths, and
// its public Result, on its own. The pin sits just above the -race
// reading, so a new per-request allocator shows.
func TestServerRunAllocsPerRequest(t *testing.T) {
	const n, pin = 200, 17
	sc, reqs := solverBeamStream(t, n)
	got := testing.AllocsPerRun(1, func() { serveFresh(t, sc, reqs) }) / n
	t.Logf("%.2f allocations per served request over a fresh %d-request pass", got, n)
	if got > pin {
		t.Errorf("a served request allocates %.2f times, want at most %d", got, pin)
	}
}
