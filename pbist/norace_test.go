//go:build !race

package pbist_test

const raceEnabled = false
