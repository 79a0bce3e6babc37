// Package examples_test runs the example programs: go build ./...
// compiles them, and this is what executes them.
package examples_test

import (
	"bytes"
	"context"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// TestExamplesRun builds each example and runs it to completion: exit
// status 0 and something on stdout, within 30 s (each takes about a
// second; udpmesh uses loopback UDP sockets).
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs five programs")
	}
	dir := t.TempDir()
	for _, name := range []string{"campus", "carpark", "inprocess", "quickstart", "udpmesh"} {
		t.Run(name, func(t *testing.T) {
			bin := filepath.Join(dir, name)
			if out, err := exec.Command("go", "build", "-o", bin, "./"+name).CombinedOutput(); err != nil {
				t.Fatalf("go build: %v\n%s", err, out)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			var stdout, stderr bytes.Buffer
			cmd := exec.CommandContext(ctx, bin)
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("run: %v (timeout: %v)\nstdout:\n%s\nstderr:\n%s", err, ctx.Err(), &stdout, &stderr)
			}
			if stdout.Len() == 0 {
				t.Fatalf("no output on stdout\nstderr:\n%s", &stderr)
			}
		})
	}
}
