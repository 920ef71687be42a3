//go:build !unix

package main

// processCPUSeconds is unavailable here; host.cpu_s_per_pass reads 0.
func processCPUSeconds() float64 { return 0 }

// ensureLazyFree is a no-op here: MADV_FREE is a Linux setting.
func ensureLazyFree() {}
