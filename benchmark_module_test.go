package aerodrome_test

// benchmark/ is its own Go module, so `go test ./...` at the root never
// compiles it, yet it builds against this module's internal packages
// (core, pipeline, rapidio, workload, race). Vetting it here makes a
// change that breaks one of those APIs fail the tests, not only the next
// benchmark run.

import (
	"os/exec"
	"testing"
)

func TestBenchmarkModuleVets(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the benchmark module")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go binary on PATH")
	}
	cmd := exec.Command(goBin, "vet", "./...")
	cmd.Dir = "benchmark"
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in benchmark/: %v\n%s", err, out)
	}
}
