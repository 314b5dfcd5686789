//go:build !race

package race

// Enabled is true in -race builds.
const Enabled = false
