// Package perfctr counts the calling OS thread's user-space instructions,
// a measure of host work that, unlike seconds, does not move with the
// machine's load or clock. It opens Linux's perf_event_open hardware
// counter through the standard library alone; elsewhere, and where the
// counter cannot open (perf_event_paranoid 3 or more, no PMU), Count
// reports why and runs nothing.
//
// A count leaves out the garbage collector's background work and all
// kernel time, and is comparable only between runs on one host built by
// one Go version.
package perfctr

import (
	"runtime"
	"runtime/debug"
	"slices"
)

// Count runs pass n times on one locked OS thread with the garbage
// collector paused, a collection run before each pass outside its count,
// and returns the median instructions per pass and the spread of the n
// counts, (max - min) / median. The caller's goroutine stays on its
// thread throughout.
func Count(n int, pass func()) (median, spread float64, err error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c, err := open()
	if err != nil {
		return 0, 0, err
	}
	defer c.close()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	counts := make([]float64, n)
	for i := range counts {
		runtime.GC()
		if err := c.start(); err != nil {
			return 0, 0, err
		}
		pass()
		v, err := c.stop()
		if err != nil {
			return 0, 0, err
		}
		counts[i] = float64(v)
	}
	slices.Sort(counts)
	median = (counts[(n-1)/2] + counts[n/2]) / 2
	return median, (counts[n-1] - counts[0]) / median, nil
}
