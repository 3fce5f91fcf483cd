//go:build race

package driver

// raceEnabled shrinks the large shapes of the adoption matrix: the race
// detector shadows every 8 MiB operand, and what it checks — which rank
// touches which element — does not depend on their size.
const raceEnabled = true
