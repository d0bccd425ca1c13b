//go:build !race

package core

// raceEnabled reports whether the tests were built with -race, under
// which sync.Pool drops a random share of the items it is given.
const raceEnabled = false
