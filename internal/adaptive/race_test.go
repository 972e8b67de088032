//go:build race

package adaptive

// raceEnabled reports a -race build: sync.Pool drops items at random under
// the race detector, so encoding/json's pooled state allocates and
// allocation counts of JSON rendering are not meaningful.
const raceEnabled = true
