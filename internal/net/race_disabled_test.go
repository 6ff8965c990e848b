//go:build !race

package net_test

const raceEnabled = false
