//go:build !linux

package main

import "time"

// preciseSleep falls back to the Go timer where nanosleep is unavailable.
func preciseSleep(d time.Duration) { time.Sleep(d) }
