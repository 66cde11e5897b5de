package main

import (
	"crypto/sha256"
	"time"
)

// The calibration loop is FROZEN: every *_norm_* number ever recorded is a
// ratio against it, so changing it invalidates the history. Four rounds of
// SHA-256 over a 1 MiB buffer (pure compute) plus 20 000 inserts into a
// fresh map[int]int (allocation and cache misses) take about 10 ms on the
// host the benchmark was sized on; calibRefMs is that reference time.
const (
	calibRounds  = 4
	calibBufSize = 1 << 20
	calibInserts = 20000
	calibRefMs   = 10.0
)

var (
	calibBuf  = make([]byte, calibBufSize)
	calibSink int
)

// calibrate runs the frozen loop once and returns its wall time in
// milliseconds.
func calibrate() float64 {
	t0 := time.Now()
	for r := 0; r < calibRounds; r++ {
		sum := sha256.Sum256(calibBuf)
		m := make(map[int]int)
		for i := 0; i < calibInserts; i++ {
			m[i] = i
		}
		calibSink += int(sum[0]) + len(m)
	}
	return time.Since(t0).Seconds() * 1e3
}

// normalize rescales a measured duration to the reference host: what the
// measurement would read if the adjacent calibration had taken calibRefMs.
func normalize(measured, calibMs float64) float64 {
	return measured * calibRefMs / calibMs
}
