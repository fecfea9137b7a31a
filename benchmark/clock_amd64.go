package main

// ticks reads the CPU time-stamp counter. Against the monotonic clock it
// halves the traced run's overhead (README.md, "Span clock");
// calibrate converts ticks to nanoseconds.
func ticks() int64
