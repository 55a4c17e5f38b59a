package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestProfilesCompleteOnErrorExit runs the built command on an unknown
// experiment, which exits with status 2 before any simulation. os.Exit skips
// deferred calls, so the profiles must be stopped on that path explicitly:
// the -cpuprofile file must hold a complete (gzip-framed) profile and the
// -memprofile file must have been written.
func TestProfilesCompleteOnErrorExit(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "shadowexp")
	if out, err := exec.Command(goTool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	out, err := exec.Command(bin, "-experiment", "nosuch", "-cpuprofile", cpu, "-memprofile", mem).CombinedOutput()
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) || exitErr.ExitCode() != 2 {
		t.Fatalf("want exit status 2, got %v\n%s", err, out)
	}
	for _, path := range []string{cpu, mem} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("%s: %v", filepath.Base(path), err)
			continue
		}
		if !bytes.HasPrefix(data, []byte{0x1f, 0x8b}) {
			t.Errorf("%s: %d bytes, want a gzip-compressed pprof profile", filepath.Base(path), len(data))
		}
	}
}
