//go:build race

package serve

// The race detector instruments the runtime and inflates allocation
// counts; the alloc_test.go budgets are only meaningful without it.
const raceEnabled = true
