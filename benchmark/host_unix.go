//go:build unix

package main

import (
	"os"
	"strings"
	"syscall"
)

// processCPUSeconds is the user plus system CPU time this process has
// consumed, from getrusage.
func processCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// ensureLazyFree makes the Go runtime return heap to the OS with MADV_FREE
// instead of MADV_DONTNEED, by re-executing the program in place with
// GODEBUG=madvdontneed=0 (the runtime reads the setting only at start).
//
// It is measurement hygiene. The scavenger returns freed heap between
// passes, and a pass that grows the heap again (fleet-observed reaches
// 400 MiB) re-faults it. On the 2-core microVM this benchmark was defined
// on, what those faults cost depends on what ran before: the same pass
// took 2.0 s after another fleet-observed run and 2.1–2.6 s, spreading
// 10–25 %, after any other workload. MADV_FREE leaves returned pages
// mapped until the kernel needs them, so the cost is paid once, in set-up,
// and the timed passes measure the simulator. GC pacing, cycle counts and
// every counted allocation are unchanged.
func ensureLazyFree() {
	const key = "GODEBUG="
	if strings.Contains(os.Getenv("GODEBUG"), "madvdontneed=") {
		return
	}
	self, err := os.Executable()
	if err != nil {
		return
	}
	setting := "madvdontneed=0"
	var env []string
	for _, kv := range os.Environ() {
		if v, ok := strings.CutPrefix(kv, key); ok {
			if v != "" {
				setting = v + "," + setting
			}
			continue
		}
		env = append(env, kv)
	}
	// Exec returns only when it fails; the run then goes on with the
	// runtime's default, noisier but correct.
	_ = syscall.Exec(self, os.Args, append(env, key+setting))
}
