package gossipkit

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// hugeRunsChild marks the re-executed test binary that runs the body of
// TestRunManyClaimsHugeRunCount.
const hugeRunsChild = "GOSSIPKIT_HUGE_RUNS_CHILD"

// TestRunManyClaimsHugeRunCount: RunMany at 2⁴⁰ runs, canceled by its
// observer after five reports, returns ErrCanceled with exactly runs 0-4
// reported. The replication pool once sized a per-run array before the
// first run, which killed the process out of memory — a fatal error no
// recover sees — so the body runs in a re-executed child, and a crash
// there fails this test instead of the whole suite.
func TestRunManyClaimsHugeRunCount(t *testing.T) {
	if os.Getenv(hugeRunsChild) == "1" {
		if err := hugeRunCountCancels(); err != nil {
			fmt.Println(err)
			os.Exit(1)
		}
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestRunManyClaimsHugeRunCount$", "-test.count=1")
	cmd.Env = append(os.Environ(), hugeRunsChild+"=1")
	out, err := cmd.CombinedOutput()
	if err != nil || !strings.Contains(string(out), "PASS") {
		t.Fatalf("child: %v\n%s", err, out)
	}
}

func hugeRunCountCancels() error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var runs []int
	_, err := RunMany(ctx, MonteCarlo{Params: Params{N: 50, Fanout: Poisson(3), AliveRatio: 0.9}}, 1<<40,
		WithSeed(1), WithWorkers(2), WithObserver(func(r Report) {
			runs = append(runs, r.Run)
			if len(runs) == 5 {
				cancel()
			}
		}))
	if !errors.Is(err, ErrCanceled) {
		return fmt.Errorf("err = %v, want ErrCanceled", err)
	}
	if fmt.Sprint(runs) != "[0 1 2 3 4]" {
		return fmt.Errorf("reported runs %v, want exactly [0 1 2 3 4]", runs)
	}
	return nil
}
