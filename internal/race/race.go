//go:build race

// Package race reports whether the binary was built with the race detector.
// The count-exact allocation guards skip under it: the detector adds
// allocations of its own, and sync.Pool deliberately drops a quarter of its
// Puts there, so a pooled value is not reliably reused.
package race

// Enabled is true under -race.
const Enabled = true
