//go:build !race

package recycle

const raceEnabled = false
