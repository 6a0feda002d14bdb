package oncrpc

import (
	"os"
	"testing"

	"slice/internal/netsim"
)

// TestMain runs the package's tests; built with the poolcheck tag it
// also fails the run if any pool buffer is left outstanding.
func TestMain(m *testing.M) { os.Exit(netsim.RunPoolChecked(m)) }
