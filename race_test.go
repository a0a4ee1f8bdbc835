//go:build race

package afp_test

func init() { raceEnabled = true }
