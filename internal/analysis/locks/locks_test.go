package locks_test

import (
	"path/filepath"
	"runtime"
	"testing"

	"crowdfill/internal/analysis/analysistest"
	"crowdfill/internal/analysis/locks"
)

func testdata() string {
	_, file, _, _ := runtime.Caller(0)
	return filepath.Join(filepath.Dir(file), "testdata")
}

// TestLocks covers critical sections: blocking under a nonblocking lock,
// self-reentry, nestings checked against //lint:before, and directive misuse.
func TestLocks(t *testing.T) {
	analysistest.Run(t, testdata(), locks.New(), "c", "d")
}

// TestLockOrder covers the declared order itself: //lint:before cycles and
// undeclared nestings between queue and table locks.
func TestLockOrder(t *testing.T) {
	analysistest.Run(t, testdata(), locks.New(), "lo")
}
