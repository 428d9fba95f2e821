//go:build race

package turbo

// raceEnabled reports whether this test binary was built with the race
// detector, whose shadow memory makes a resident-set budget meaningless.
const raceEnabled = true
