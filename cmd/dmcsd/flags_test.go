package main

import (
	"errors"
	"os/exec"
	"strings"
	"testing"
)

// TestFlagValidation: a value dmcsd cannot run with is refused with exit
// status 2 and a message naming the flag, before the graph is read — the
// graph path does not exist, so reaching it is exit status 1, which is
// what the all-defaults row must do.
func TestFlagValidation(t *testing.T) {
	for _, c := range []struct {
		args string
		code int
		want string
	}{
		{"", 1, "open graph"},
		{"-max-inflight -1", 2, "-max-inflight"},
		{"-cheap-rate -1", 2, "-cheap-rate"},
		{"-expensive-rate -0.5", 2, "-expensive-rate"},
		{"-cheap-rate NaN", 2, "-cheap-rate"},
		{"-default-timeout -1s", 2, "-default-timeout"},
		{"-max-timeout -1s", 2, "-max-timeout"},
		{"-drain-timeout -1s", 2, "-drain-timeout"},
		{"-fsync-interval -1ms", 2, "-fsync-interval"},
		{"-wal-segment-bytes -1", 2, "-wal-segment-bytes"},
		{"-checkpoint-every -1", 2, "-checkpoint-every"},
		{"-cache -1", 2, "-cache"},
		{"-stale-retention -1", 2, "-stale-retention"},
		{"-workers -1", 2, "-workers"},
		{"-expensive-nodes -1", 2, "-expensive-nodes"},
		{"-slo -1ms", 2, "-slo"},
		{"-default-timeout 5s -max-timeout 1s", 2, "-max-timeout 1s is below -default-timeout 5s"},
	} {
		args := append([]string{"-graph", "/nonexistent/graph.txt"}, strings.Fields(c.args)...)
		out, err := exec.Command(binPath, args...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != c.code || !strings.Contains(string(out), c.want) {
			t.Errorf("dmcsd %s: %v, output %q; want exit status %d naming %q", c.args, err, out, c.code, c.want)
		}
	}
}
