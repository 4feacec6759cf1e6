package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs main instead of the tests when the test binary is started
// with TASCOVER_MAIN=1, so a test can run the command as a child process.
func TestMain(m *testing.M) {
	if os.Getenv("TASCOVER_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRejectsTooFewProcesses: the covering construction needs n ≥ 4, and a
// smaller -n is a usage error (exit 1), not a panic.
func TestRejectsTooFewProcesses(t *testing.T) {
	for _, n := range []string{"3", "0", "-2"} {
		cmd := exec.Command(os.Args[0], "-n", n)
		cmd.Env = append(os.Environ(), "TASCOVER_MAIN=1")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(string(out), "needs at least 4 processes") {
			t.Errorf("-n %s: err = %v, want exit status 1 and a usage error; output:\n%s", n, err, out)
		}
	}
}
