package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the cmd/optimus golden stdout files")

// captureStdout runs f with os.Stdout redirected into a pipe and returns
// everything f printed, so a command's real stdout rendering can be pinned
// without changing its signature.
func captureStdout(t *testing.T, f func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		done <- b
	}()
	runErr := f()
	os.Stdout = saved
	w.Close()
	out := <-done
	r.Close()
	return string(out), runErr
}

// goldenTrace is the replay trace the -trace golden rows read: two
// tenants, one of them behind a shared system-prompt prefix.
const goldenTrace = "testdata/trace.csv"

// TestCLIGolden pins the serve and cluster stdout byte for byte in every
// output format over a fixed matrix of workloads, admission policies,
// arrival processes and routers. Regenerate with
// `go test ./cmd/optimus -run TestCLIGolden -update` only for a change
// that means to alter the rendered output.
func TestCLIGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		cmd  func([]string) error
		args []string
	}{
		{"serve-reserve", cmdServe, []string{"-rate", "2", "-requests", "32"}},
		{"serve-paged-prefix-host", cmdServe, []string{"-policy", "paged", "-prefix", "64", "-kv-host-gb", "4", "-rate", "20", "-gen", "2400", "-requests", "32"}},
		{"serve-disagg", cmdServe, []string{"-gpus", "2", "-policy", "disagg", "-prefill-devices", "1", "-decode-devices", "1", "-transfer-gbps", "25", "-rate", "2", "-requests", "32"}},
		{"serve-mix", cmdServe, []string{"-mix", "chat:0.7:200:200,batch:0.3:800:100", "-rate", "2", "-requests", "32"}},
		{"serve-trace", cmdServe, []string{"-policy", "paged", "-trace", goldenTrace}},
		{"serve-closed", cmdServe, []string{"-arrival", "closed", "-clients", "4", "-requests", "32"}},
		{"serve-schedule", cmdServe, []string{"-schedule", "0-5:2,5-10:6", "-requests", "32"}},
		{"serve-sessions", cmdServe, []string{"-policy", "paged", "-turns", "4", "-think", "5", "-rate", "2", "-requests", "32"}},
		{"cluster-round-robin", cmdCluster, []string{"-replicas", "2", "-requests", "32"}},
		{"cluster-least-kv", cmdCluster, []string{"-routing", "least-kv", "-policy", "paged", "-prefix", "64", "-kv-host-gb", "4", "-rate", "20", "-gen", "4000", "-requests", "32"}},
		{"cluster-trace", cmdCluster, []string{"-replicas", "2", "-policy", "paged", "-trace", goldenTrace}},
		{"cluster-knee", cmdCluster, []string{"-replicas", "2", "-max-batch", "4", "-requests", "32", "-slo-e2e-p95", "6", "-min-rate", "0.5", "-max-rate", "6"}},
	} {
		for _, format := range []string{"text", "csv", "json"} {
			name := tc.name + "." + format
			t.Run(name, func(t *testing.T) {
				args := append(append([]string{}, tc.args...), "-format", format)
				out, err := captureStdout(t, func() error { return tc.cmd(args) })
				if err != nil {
					t.Fatalf("%v: %v", args, err)
				}
				path := filepath.Join("testdata", name+".golden")
				if *update {
					if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("%v (regenerate with -update)", err)
				}
				if !bytes.Equal([]byte(out), want) {
					t.Errorf("%v: stdout differs from %s\n got: %s\nwant: %s",
						args, path, firstLine(out), firstLine(string(want)))
				}
			})
		}
	}
}

// firstLine keeps a golden mismatch report short: the header line names
// the run, and a byte diff is one `diff` away.
func firstLine(s string) string {
	line, _, _ := strings.Cut(s, "\n")
	return line
}
