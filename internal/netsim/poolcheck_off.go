//go:build !poolcheck

package netsim

func checkGet([]byte, bool) {}

func checkFree([]byte) {}

// RunPoolChecked runs a test binary's tests. Only under the poolcheck
// tag does it also check the pool at teardown.
func RunPoolChecked(m interface{ Run() int }) int { return m.Run() }
