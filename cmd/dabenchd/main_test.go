package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"zero parallel", []string{"-parallel", "0"}, "-parallel"},
		{"negative parallel", []string{"-parallel", "-3"}, "-parallel"},
		{"huge parallel", []string{"-parallel", "100000"}, "-parallel"},
		{"negative inflight", []string{"-max-inflight", "-1"}, "-max-inflight"},
		{"zero timeout", []string{"-timeout", "0s"}, "-timeout"},
		{"zero drain", []string{"-drain-timeout", "0s"}, "-timeout"},
		{"zero sweep points", []string{"-max-sweep-points", "0"}, "-max-sweep-points"},
		{"zero job points", []string{"-max-job-points", "0"}, "-max-job-points"},
		{"stray argument", []string{"stray"}, "unexpected argument"},
		// Deleted flags fail at parse time, whatever their value. -parallel 0
		// makes a binary that does define one fail too, but on -parallel instead.
		{"negative job workers", []string{"-job-workers", "-1", "-parallel", "0"}, "flag provided but not defined: -job-workers"},
		{"huge job workers", []string{"-job-workers", "100000", "-parallel", "0"}, "flag provided but not defined: -job-workers"},
		{"negative chunk retries", []string{"-chunk-retries", "-1", "-parallel", "0"}, "flag provided but not defined: -chunk-retries"},
		{"undefined chunk-retry-backoff", []string{"-chunk-retry-backoff", "50ms", "-parallel", "0"}, "flag provided but not defined: -chunk-retry-backoff"},
		{"undefined stage-log", []string{"-stage-log", "stages.csv", "-parallel", "0"}, "flag provided but not defined: -stage-log"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args)
			if err == nil {
				t.Fatal("invalid flags accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestListenFailureSurfaces(t *testing.T) {
	// An unbindable address must fail fast, not hang in Serve.
	if err := run([]string{"-addr", "256.256.256.256:0"}); err == nil {
		t.Error("unbindable address accepted")
	}
}

// TestHelpFlagSucceeds requires -h to print the flag list to stderr and
// succeed without starting the daemon, so `dabenchd -h` exits 0 and a
// script can tell a help request from a failed boot.
func TestHelpFlagSucceeds(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = w
	defer func() { os.Stderr = stderr }()
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	err = run([]string{"-h"})
	w.Close()
	usage := <-out
	if err != nil {
		t.Errorf("dabenchd -h: %v, want success", err)
	}
	if !strings.Contains(usage, "Usage of dabenchd:") || !strings.Contains(usage, "  -addr") {
		t.Errorf("dabenchd -h printed no flag usage on stderr: %q", usage)
	}
}
