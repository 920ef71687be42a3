package core

import "fasttts/internal/metrics"

// Chunk caps of a resultStore. Chunks double from one element up to the
// cap (a path chunk is never smaller than the request it is cut for), so
// a one-request run allocates no more than it returns and a long run one
// chunk per 64 Results or 256 paths. Both caps are about 12 KiB (184 B
// and 48 B an element), small next to a run's heap: a run leaves unused
// the tail of its last Result chunk, and of each path chunk the tail too
// short for the request that followed.
const (
	resultChunkCap = 64
	pathChunkCap   = 256
)

// resultStore hands out a run's Results and their finished paths from
// shared chunks, so a served request allocates neither. A chunk is never
// moved or reused once handed out, so a Result stays valid as long as
// anything holds it — and holding any one Result keeps its whole chunk
// (and its paths' chunk) alive. Each Finished is sliced with cap == len,
// so an append to one result's paths copies instead of writing into the
// next result's. A store is not safe for concurrent use: the loops that
// share one run on one goroutine.
type resultStore struct {
	results []Result
	paths   []metrics.PathResult
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
