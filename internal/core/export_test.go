package core

// Defaults exposes the zero Options' defaults to the external tests, which
// may import internal/bench.
func Defaults() Options { return (*Options)(nil).withDefaults() }
