//go:build !race

package repl

const raceEnabled = false
