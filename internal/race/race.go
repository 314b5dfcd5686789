//go:build race

// Package race reports whether the binary was built with the race
// detector. Tests consult it to trim long randomized runs (so the CI race
// job, the full suite under -race, stays fast) and to skip
// zero-allocation assertions: under the detector sync.Pool drops a share
// of what is Put into it, so pooled scratch legitimately re-allocates.
package race

// Enabled is true in -race builds.
const Enabled = true
