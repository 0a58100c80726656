package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"metricindex/internal/dataset"
)

// runAsMsearch, when set, makes the test binary run main() instead of
// the tests: the cases below re-execute the binary as the command.
const runAsMsearch = "MSEARCH_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runAsMsearch) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const msearchQueries = 6

// msearch runs the command on a small saved Words dataset and returns
// its standard output; a non-zero exit fails the test.
func msearch(t *testing.T, args ...string) string {
	t.Helper()
	gen, err := dataset.Generate(dataset.Words, dataset.Config{N: 400, Queries: msearchQueries, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "words.midx")
	if err := dataset.Save(path, gen); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], append([]string{"-data", path}, args...)...)
	cmd.Env = append(os.Environ(), runAsMsearch+"=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("msearch %v: %v\n%s%s", args, err, out, stderr.String())
	}
	return string(out)
}

// TestCachedRepeatPass: with an answer cache, the second pass of the
// sequential loop is served memoized and computes no distance.
func TestCachedRepeatPass(t *testing.T) {
	out := msearch(t, "-index", "LAESA", "-k", "5", "-verify", "-cache-mb", "8", "-repeat", "2")
	if !strings.Contains(out, "verified against linear scan") {
		t.Fatalf("no verified answer:\n%s", out)
	}
	if !regexp.MustCompile(`(?m)^pass 2: \d+ queries in .* \(0 dists, 0 PA\)$`).MatchString(out) {
		t.Fatalf("pass 2 computed distances:\n%s", out)
	}
	if !regexp.MustCompile(`(?m)^cache: \d+ served, \d+ computed`).MatchString(out) {
		t.Fatalf("no cache line:\n%s", out)
	}
}

// TestCachedRepeatBatch: through the batch engine, the second pass
// takes every query from the cache before dispatch.
func TestCachedRepeatBatch(t *testing.T) {
	out := msearch(t, "-index", "LAESA", "-k", "5", "-verify", "-cache-mb", "8", "-repeat", "2", "-workers", "2")
	if !strings.Contains(out, "all answers verified against linear scan") {
		t.Fatalf("no verified batch:\n%s", out)
	}
	want := fmt.Sprintf(`(?m)^pass 2: %d queries in .*, %d cache hits, 0 dists/query$`, msearchQueries, msearchQueries)
	if !regexp.MustCompile(want).MatchString(out) {
		t.Fatalf("pass 2 is not one cache hit per query:\n%s", out)
	}
	if !regexp.MustCompile(`(?m)^cache: \d+ served, \d+ computed`).MatchString(out) {
		t.Fatalf("no cache line:\n%s", out)
	}
}

// TestUncachedRun: without -cache-mb there is no cache and no cache line.
func TestUncachedRun(t *testing.T) {
	out := msearch(t, "-index", "SPB-tree", "-k", "5", "-verify")
	if !strings.Contains(out, "verified against linear scan") {
		t.Fatalf("no verified answer:\n%s", out)
	}
	if strings.Contains(out, "cache:") {
		t.Fatalf("cache line without a cache:\n%s", out)
	}
}
