//go:build !race

package adaptive

const raceEnabled = false
