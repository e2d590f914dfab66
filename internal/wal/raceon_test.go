//go:build race

package wal

// raceEnabled reports a build with the race detector, whose sync.Pool drops
// some of what it is handed.
const raceEnabled = true
