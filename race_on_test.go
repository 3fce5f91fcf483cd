//go:build race

package srumma

const raceEnabled = true
