//go:build race

package giop

// The race runtime drops a random quarter of sync.Pool puts and adds
// allocations of its own, so allocation budgets do not hold under -race.
func init() { raceEnabled = true }
