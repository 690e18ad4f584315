//go:build !race

package lbic_test

const raceEnabled = false
