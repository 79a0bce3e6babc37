package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// frugalsim is the command under test, built once by TestMain; the
// unknown-id paths end in os.Exit, so they are pinned end-to-end
// through the real binary rather than in-process.
var frugalsim string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "frugalsim-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	frugalsim = filepath.Join(dir, "frugalsim")
	code := 1
	if out, err := exec.Command("go", "build", "-o", frugalsim, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestUnknownIDsPrintCatalogAndExit1 pins the three unknown-id paths to
// the same contract: print the matching registry catalog on stderr and
// exit 1 (structural flag misuse stays exit 2, see below).
func TestUnknownIDsPrintCatalogAndExit1(t *testing.T) {
	cases := []struct {
		flag  string
		wants []string // catalog entries that must be listed
	}{
		{"-protocol", []string{"unknown protocol", "frugal", "gossip-pushpull", "simple-flooding"}},
		{"-scenario", []string{"unknown scenario", "campus", "manhattan", "metro-10k"}},
		{"-workload", []string{"unknown workload", "poisson", "churn-nodes", "diurnal"}},
	}
	for _, c := range cases {
		t.Run(c.flag, func(t *testing.T) {
			cmd := exec.Command(frugalsim, c.flag, "no-such-id")
			var stderr strings.Builder
			cmd.Stderr = &stderr
			err := cmd.Run()
			ee, ok := err.(*exec.ExitError)
			if !ok {
				t.Fatalf("%s no-such-id: err = %v, want non-zero exit", c.flag, err)
			}
			if code := ee.ExitCode(); code != 1 {
				t.Fatalf("%s no-such-id exited %d, want 1\nstderr:\n%s", c.flag, code, stderr.String())
			}
			for _, w := range c.wants {
				if !strings.Contains(stderr.String(), w) {
					t.Fatalf("%s no-such-id stderr lacks %q:\n%s", c.flag, w, stderr.String())
				}
			}
		})
	}
}

// TestFlagMisuseKeepsExit2 pins the boundary: a structurally invalid
// invocation (an ad-hoc flag combined with -scenario) is usage error 2,
// distinct from the unknown-id exit 1.
func TestFlagMisuseKeepsExit2(t *testing.T) {
	cmd := exec.Command(frugalsim, "-scenario", "campus", "-nodes", "5")
	err := cmd.Run()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("err = %v, want non-zero exit", err)
	}
	if code := ee.ExitCode(); code != 2 {
		t.Fatalf("flag misuse exited %d, want 2", code)
	}
}

// TestCampusTraceGolden pins the -trace output end-to-end: the summary,
// the last 40 timeline records and, since the run wraps the ring, the
// dropped-records note after them. Only the wall-clock time is masked.
func TestCampusTraceGolden(t *testing.T) {
	out, err := exec.Command(frugalsim, "-scenario", "campus", "-trace", "40").Output()
	if err != nil {
		t.Fatalf("frugalsim: %v", err)
	}
	got := regexp.MustCompile(`\(wall [^)]*\)\n`).ReplaceAllString(string(out), "(wall X)\n")
	want, err := os.ReadFile(filepath.Join("testdata", "campus-trace40.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("output differs from testdata/campus-trace40.golden:\n%s", got)
	}
}

// TestCensoredCountOnStderr: the censored-event count goes to stderr,
// so stdout (and the golden above) reads the same as before; a run
// without censored events prints nothing there. The ad-hoc scenario's
// window covers its last -events publication.
func TestCensoredCountOnStderr(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-scenario", "stadium"}, "6 of 24 events censored"},
		{[]string{"-scenario", "campus"}, ""},
		{[]string{"-events", "20", "-nodes", "20"}, ""},
	} {
		var stderr strings.Builder
		cmd := exec.Command(frugalsim, c.args...)
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("%v: %v\n%s", c.args, err, stderr.String())
		}
		if got := stderr.String(); !strings.HasPrefix(got, c.want) || (c.want == "") != (got == "") {
			t.Errorf("%v: stderr = %q, want it to start with %q", c.args, got, c.want)
		}
	}
}
