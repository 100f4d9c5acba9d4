package main

import (
	"crypto/sha256"
	"time"
)

// calibVersion names the frozen calibration kernel. Host costs are
// reported as multiples of the kernel's run time, so any edit to
// calibKernel rebases every host number: bump the version in the same
// change, and make that change a benchmark PR of its own.
const calibVersion = 1

// calibNominal is what the kernel takes on the 2-core reference sandbox
// when nothing disturbs it. setup_s must be in seconds, so a cold
// process's wall time is scaled by calibNominal over the kernel time
// measured around it: seconds on a host as fast as the reference, which
// a slow phase of the real host moves far less than it moves wall time.
// Frozen with the kernel under calibVersion.
const calibNominal = 40 * time.Millisecond

// calibEvery is how much work may pass before the kernel runs again.
const calibEvery = 250 * time.Millisecond

// calibSink keeps the kernel's results live so the compiler cannot drop
// the work.
var calibSink uint64

// calibKernel is the unit of host cost: a fixed amount of stdlib-only
// work with the simulator's own resource mix — ALU (SHA-256), allocator
// and page zeroing (a fresh 8 MiB buffer), hash-map traffic (200k
// updates) and goroutine handoff (20k unbuffered channel round trips).
// It returns how long the work took on this host right now.
func calibKernel() time.Duration {
	start := time.Now()

	buf := make([]byte, 8<<20)
	for i := 0; i < len(buf); i += 4096 {
		buf[i] = byte(i >> 12)
	}
	sum := sha256.Sum256(buf)

	m := make(map[uint64]uint64)
	x := uint64(sum[0]) | 1
	for i := 0; i < 200_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		m[x>>46]++
	}

	ping, pong := make(chan uint64), make(chan uint64)
	go func() {
		for v := range ping {
			pong <- v + 1
		}
		close(pong)
	}()
	var v uint64
	for i := 0; i < 20_000; i++ {
		ping <- v
		v = <-pong
	}
	close(ping)
	<-pong // closed: the peer goroutine has exited

	calibSink += v + uint64(len(m)) + uint64(sum[1])
	return time.Since(start)
}
