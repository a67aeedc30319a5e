package main

import (
	"syscall"
	"time"
)

// preciseSleep blocks the calling thread in nanosleep(2), which wakes
// within microseconds; the runtime hands the processor to other goroutines
// meanwhile.
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
