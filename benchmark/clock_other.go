//go:build !amd64

package main

import "time"

var clockBase = time.Now()

// ticks falls back to the monotonic clock (one tick per nanosecond) where
// no cheap cycle counter is wired up.
func ticks() int64 { return int64(time.Since(clockBase)) }
