package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs main instead of the tests when the test binary is started
// with TASTRACE_MAIN=1, so a test can run the command as a child process.
func TestMain(m *testing.M) {
	if os.Getenv("TASTRACE_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRejectsBadProcessCount: -k must name between 1 and n processes, so
// no participants, or more than the object was built for, is a usage
// error (exit 1) rather than a panic or a run on an undersized object.
func TestRejectsBadProcessCount(t *testing.T) {
	for _, args := range [][]string{{"-k", "0"}, {"-k", "5", "-n", "2"}} {
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "TASTRACE_MAIN=1")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(string(out), "want 1 ≤ k ≤ n") {
			t.Errorf("%v: err = %v, want exit status 1 and a usage error; output:\n%s", args, err, out)
		}
	}
}
