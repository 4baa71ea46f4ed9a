//go:build !race

package rdu

const raceEnabled = false
