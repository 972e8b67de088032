package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files from the current output")

// runMainEnv makes the test binary act as the chainmon binary: a child
// process started with it set runs main with its own arguments.
const runMainEnv = "CHAINMON_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// execCLI runs chainmon with args in dir and returns what it printed and
// its exit code.
func execCLI(t *testing.T, dir string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var out, errOut strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errOut
	var exit *exec.ExitError
	if err := cmd.Run(); err != nil && !errors.As(err, &exit) {
		t.Fatalf("chainmon %s: %v", strings.Join(args, " "), err)
	}
	return out.String(), errOut.String(), cmd.ProcessState.ExitCode()
}

// runCLI runs chainmon with args in dir, fails the test unless it exits 0,
// and returns its standard output.
func runCLI(t *testing.T, dir string, args ...string) string {
	t.Helper()
	stdout, stderr, code := execCLI(t, dir, args...)
	if code != 0 {
		t.Fatalf("chainmon %s: exit %d\n%s", strings.Join(args, " "), code, stderr)
	}
	return stdout
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestFullRecoverStreamDigest pins a traced full-chain run with loss and
// hold-over recovery byte for byte: the SHA-256 of the streamed event log
// and of the printed report. The log records every hop of every message —
// sends, link drops, receives, recovery receives, timer programming and
// verdicts — so any change to the order or content of the simulated message
// path shows up here. Regenerate deliberately with:
//
//	go test ./cmd/chainmon -run TestFullRecoverStreamDigest -update
func TestFullRecoverStreamDigest(t *testing.T) {
	dir := t.TempDir()
	stdout := runCLI(t, dir, "-full", "-recover", "-loss", "0.05", "-frames", "300",
		"-trace-stream", "run.chmtrc")
	log, err := os.ReadFile(filepath.Join(dir, "run.chmtrc"))
	if err != nil {
		t.Fatal(err)
	}
	if !regexp.MustCompile(`recovered=[1-9]`).MatchString(stdout) {
		t.Fatalf("the pinned run must exercise recovery receives:\n%s", stdout)
	}
	got := fmt.Sprintf("stream %s %d\nstdout %s %d\n",
		digest(log), len(log), digest([]byte(stdout)), len(stdout))

	golden := filepath.Join("testdata", "full_recover.digest")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to generate): %v", err)
	}
	if got != string(want) {
		t.Errorf("traced -full -recover run drifted:\n got %s\nwant %s\nif the change is intended, rerun with -update", got, want)
	}
}
