package core

import (
	"fasttts/internal/metrics"
	"fasttts/internal/search"
	"fasttts/internal/workload"
)

// Chunk caps of a resultStore. Chunks double from one element up to the
// cap (a path or slice-record chunk is never smaller than the request it
// is cut for), so a one-request run allocates no more than it returns and
// a long run one chunk per 64 Results or traces, 256 paths or 512 slice
// records. The Result, path and record caps are about 12, 12 and 16 KiB
// (184, 48 and 32 B an element), a trace chunk about 2 KiB, small next to
// a run's heap: a run leaves unused the tail of its last Result and trace
// chunk, and of each path and record chunk the tail too short for the
// request that followed.
const (
	resultChunkCap = 64
	pathChunkCap   = 256
	traceChunkCap  = 64
	recChunkCap    = 512
)

// resultStore hands out a run's Results and their finished paths from
// shared chunks, so a served request allocates neither. A chunk is never
// moved or reused once handed out, so a Result stays valid as long as
// anything holds it — and holding any one Result keeps its whole chunk
// (and its paths' chunk) alive. Each Finished is sliced with cap == len,
// so an append to one result's paths copies instead of writing into the
// next result's. A store is not safe for concurrent use: the loops that
// share one run on one goroutine.
//
// The store also keeps the run's record of clean solves (see solveTrace),
// their slice records in chunks of their own, the one table that finds
// them by key for every loop that shares the store, and the recording
// buffers no session holds (recBufs): a session recording its solve takes
// one and gives it back when it ends, so a run has as many as it ever had
// recordings in flight at once, not one per session.
type resultStore struct {
	results []Result
	paths   []metrics.PathResult
	traces  []solveTrace
	recs    []sliceRec
	byKey   map[traceKey]*solveTrace
	recBufs [][]sliceRec
}

// newResult returns a zeroed Result from the current chunk.
func (st *resultStore) newResult() *Result {
	if len(st.results) == cap(st.results) {
		st.results = make([]Result, 0, min(max(2*cap(st.results), 1), resultChunkCap))
	}
	st.results = st.results[:len(st.results)+1]
	return &st.results[len(st.results)-1]
}

// keepPaths copies a request's finished paths into the store at exact
// length. No path still reads as an empty, non-nil slice, as a request's
// Finished always has.
func (st *resultStore) keepPaths(src []metrics.PathResult) []metrics.PathResult {
	n := len(src)
	if n == 0 {
		return []metrics.PathResult{}
	}
	if n > cap(st.paths)-len(st.paths) {
		st.paths = make([]metrics.PathResult, 0, max(min(2*cap(st.paths), pathChunkCap), n))
	}
	lo := len(st.paths)
	st.paths = append(st.paths, src...)
	return st.paths[lo:len(st.paths):len(st.paths)]
}

// traceKey is what a solve on a loop is a function of, beside the
// per-slice preemption probe: the device's deployment (its Server, whose
// Config fixes the seed, models, GPU and options), the problem, the
// effective width and the effective strategy. The request streams come
// from (seed, dataset, index) alone, and a recycled solver starts each
// request from its just-built state, so two solves of one key under
// probes that never fire are equal slice for slice.
type traceKey struct {
	srv      *Server
	p        *workload.Problem
	width    int
	strategy search.Strategy
}

// sliceRec is what a loop reads from a solver after one device slice:
// the solver clock at the slice's end, the generator's decoded tokens and
// its resident KV tokens, and, for a solve that does not speculate, the
// latest decode-round top the slice consulted its probe at (< 0: none, and
// always for a speculating solve), from which a replay recomputes the
// slice's probe-hit flag.
type sliceRec struct {
	end     float64
	top     float64
	decoded int64
	used    int64
}

// solveTrace is one recorded clean solve: its slices in order and its
// Result, which every replay of the trace serves. spec reports whether
// the solve speculates; only then can a probe change what a slice does,
// so only then is a replayed slice checked for cleanness.
type solveTrace struct {
	slices []sliceRec
	res    *Result
	spec   bool
}

// takeRec returns an empty, non-nil recording buffer: a free one, or a
// new one when none is.
func (st *resultStore) takeRec() []sliceRec {
	k := len(st.recBufs) - 1
	if k < 0 {
		return make([]sliceRec, 0, 16)
	}
	b := st.recBufs[k]
	st.recBufs[k] = nil
	st.recBufs = st.recBufs[:k]
	return b
}

// putRec gives a recording buffer back.
func (st *resultStore) putRec(b []sliceRec) {
	if b != nil {
		st.recBufs = append(st.recBufs, b[:0])
	}
}

// trace returns the recorded solve of key; nil when there is none.
func (st *resultStore) trace(key traceKey) *solveTrace {
	return st.byKey[key]
}

// keepTrace records a clean solve of key — its slice records copied into
// the store, its Result shared — unless key already has one: the first
// clean trace of a key wins.
func (st *resultStore) keepTrace(key traceKey, recs []sliceRec, res *Result, spec bool) {
	if _, ok := st.byKey[key]; ok {
		return
	}
	if st.byKey == nil {
		st.byKey = make(map[traceKey]*solveTrace)
	}
	if len(st.traces) == cap(st.traces) {
		st.traces = make([]solveTrace, 0, min(max(2*cap(st.traces), 1), traceChunkCap))
	}
	n := len(recs)
	if n > cap(st.recs)-len(st.recs) {
		st.recs = make([]sliceRec, 0, max(min(2*cap(st.recs), recChunkCap), n))
	}
	lo := len(st.recs)
	st.recs = append(st.recs, recs...)
	st.traces = append(st.traces, solveTrace{slices: st.recs[lo:len(st.recs):len(st.recs)], res: res, spec: spec})
	st.byKey[key] = &st.traces[len(st.traces)-1]
}
