package main

import (
	"context"
	"net/http"
	"regexp"
	"strings"
	"testing"

	"gossipkit"
	"gossipkit/internal/cli/clitest"
)

// small is a valid 64-member, one-run command line without a rate.
const small = "-n 64 -duration 50ms -runs 1 "

// stream runs gossipstream on small plus args.
func stream(args string) (status int, stdout, stderr string) {
	return clitest.Run(context.Background(), run, strings.Fields(small+args)...)
}

func TestExitContract(t *testing.T) {
	clitest.ExitContract(t, "gossipstream", run, strings.Fields(small+"-rate 100"), strings.Fields(small+"-rate 100 -q 2"))
}

// TestHostileLossRejected: every non-zero -loss reaches the facade's check,
// so a negative, NaN or out-of-range probability is an invalid-parameters
// error rather than a silently loss-free run.
func TestHostileLossRejected(t *testing.T) {
	for _, loss := range []string{"-3", "NaN", "7"} {
		if status, _, stderr := stream("-rate 100 -loss " + loss); status != 1 ||
			!strings.Contains(stderr, gossipkit.ErrInvalidParams.Error()) {
			t.Errorf("-loss %s: exit %d, stderr %q; want 1 and invalid parameters", loss, status, stderr)
		}
	}
}

// TestHostileLatencyRejected: -latency-hi below -latency-lo used to run as
// the constant -latency-lo network, and a negative -latency-lo ran; both are
// invalid-parameters errors before the first execution.
func TestHostileLatencyRejected(t *testing.T) {
	for _, lat := range []string{"-latency-lo 5ms -latency-hi 1ms", "-latency-lo -2ms -latency-hi 5ms"} {
		if status, _, stderr := stream("-rate 100 " + lat); status != 1 ||
			!strings.Contains(stderr, gossipkit.ErrInvalidParams.Error()) {
			t.Errorf("%s: exit %d, stderr %q; want 1 and invalid parameters", lat, status, stderr)
		}
	}
}

// TestBadFlagsFailBeforeOutput: a config error used to surface after the
// CSV header had gone to stdout. Every rate's cell is now checked before the
// header: the error comes with nothing on stdout.
func TestBadFlagsFailBeforeOutput(t *testing.T) {
	for _, args := range []string{
		"-rate 100 -buffer -1",
		"-rate 100 -buffer 1152921504606846976", // 2⁶⁰: n·capacity used to wrap
		"-rate 100 -loss 7",
		"-rate 100 -runs 0",
		"-rates 100,400 -q 2",
		"-rates 1:10:1099511627776",
		"-rates 5:5:3",
		"-rates 1:1.001:5",
		"-rates 100,100",
		"-rate -5",
	} {
		status, stdout, stderr := stream(args)
		if status != 1 || !strings.Contains(stderr, gossipkit.ErrInvalidParams.Error()) {
			t.Errorf("%s: exit %d, stderr %q; want 1 and invalid parameters", args, status, stderr)
		}
		if stdout != "" {
			t.Errorf("%s: rejected after printing:\n%s", args, stdout)
		}
	}
}

// TestRateAndRatesRejected: with both -rate and -rates set, -rate used to be
// dropped silently and only the -rates sweep ran. Setting both is one error
// before anything runs.
func TestRateAndRatesRejected(t *testing.T) {
	status, stdout, stderr := stream("-rate 100 -rates 200")
	if status != 1 || stdout != "" || stderr != "gossipstream: choose one of -rate, -rates\n" {
		t.Errorf("-rate 100 -rates 200: exit %d\nstdout:\n%s\nstderr:\n%s", status, stdout, stderr)
	}
}

// TestPprof: gossipstream was the one command without -pprof. It serves
// net/http/pprof on the address it names on stderr while the sweep runs.
func TestPprof(t *testing.T) {
	status, stdout, stderr := stream("-rate 100 -pprof 127.0.0.1:0")
	url := regexp.MustCompile(`^gossipstream: pprof on (http://\S+/debug/pprof/)\n`).FindStringSubmatch(stderr)
	if status != 0 || url == nil || !strings.HasPrefix(stdout, "rate,") {
		t.Fatalf("-pprof 127.0.0.1:0: exit %d\nstdout:\n%s\nstderr:\n%s", status, stdout, stderr)
	}
	resp, err := http.Get(url[1])
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET %s: %s", url[1], resp.Status)
	}
}

// TestStrayArgumentRejected: flag parsing stops at the first non-flag
// argument, so "-rate 100 -runs 1 stray -n 64" ran at the default -n 256
// and exited 0. A leftover argument now exits 2 before anything runs, with
// an empty stdout and one stderr line naming it.
func TestStrayArgumentRejected(t *testing.T) {
	status, stdout, stderr := clitest.Run(context.Background(), run, strings.Fields("-rate 100 -runs 1 stray -n 64")...)
	if status != 2 || stdout != "" || stderr != "gossipstream: unexpected argument \"stray\"\n" {
		t.Errorf("gossipstream -rate 100 -runs 1 stray -n 64: exit %d\nstdout:\n%s\nstderr:\n%s", status, stdout, stderr)
	}
}
