//go:build race

package cbase

const raceEnabled = true
