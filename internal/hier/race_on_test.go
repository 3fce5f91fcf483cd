//go:build race

package hier

// raceEnabled shrinks the large shapes of the matrix and skips what reads
// the band pool: the race detector shadows every operand and makes sync.Pool
// drop puts on purpose.
const raceEnabled = true
