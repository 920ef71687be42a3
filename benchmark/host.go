package main

// Host fingerprint and a calibration kernel: enough to tell, when
// pass_host_s moves, whether the program moved or the machine did.

import (
	"fmt"
	"math/bits"
	"os"
	"runtime"
	"strings"
	"time"
)

// calibSink keeps the calibration kernel's result alive.
var calibSink uint64

// calibrate times a fixed pure-Go kernel: an integer hash chain scattered
// over a 16 MiB table, so both the ALU and the memory system count. It
// returns the median of three rounds in seconds.
func calibrate() float64 {
	const (
		words = 2 << 20
		steps = 32 << 20
	)
	table := make([]uint64, words)
	rounds := make([]float64, 3)
	for r := range rounds {
		start := time.Now()
		x := uint64(0x9e3779b97f4a7c15)
		for i := 0; i < steps; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			slot := &table[x%words]
			*slot = bits.RotateLeft64(*slot^x, 9) + uint64(i)
		}
		calibSink += x + table[x%words]
		rounds[r] = time.Since(start).Seconds()
	}
	return median(rounds)
}

// cpuModel reads the CPU model name where the OS exposes one.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, v, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown"
}

// fingerprint describes the host in one line.
func fingerprint(calib float64) string {
	return fmt.Sprintf("host: nproc=%d GOMAXPROCS=%d %s %s/%s cpu=%q host.calib_s=%.4f",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, cpuModel(), calib)
}
