//go:build !unix

package main

import "time"

// processCPU is unavailable off unix; the report's per-CPU-second rate
// then reads 0.
func processCPU() time.Duration { return 0 }
