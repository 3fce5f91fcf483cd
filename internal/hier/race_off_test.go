//go:build !race

package hier

const raceEnabled = false
