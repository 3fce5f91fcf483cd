//go:build !race

package srumma

const raceEnabled = false
