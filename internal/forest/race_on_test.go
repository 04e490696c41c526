//go:build race

package forest

// raceEnabled reports a -race build: its sync.Pool drops a random share
// of Puts by design, so pooled paths cannot promise zero allocations.
const raceEnabled = true
