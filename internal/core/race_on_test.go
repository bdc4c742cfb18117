//go:build race

package core_test

// raceEnabled reports a -race build, where sync.Pool drops items at
// random and allocation counts through a pool are not repeatable.
const raceEnabled = true
