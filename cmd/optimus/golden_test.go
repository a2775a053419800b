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

var update = flag.Bool("update", false, "rewrite the cmd/optimus golden files")

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
// arrival processes and routers, and the sweep's csv stdout and memo
// cache file over a training, an inference and four serving grids.
// Regenerate with `go test ./cmd/optimus -run TestCLIGolden -update` only
// for a change that means to alter the rendered output or the memo keys.
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
				checkGolden(t, args, name, []byte(out))
			})
		}
	}
	// Sweep rows render csv only (text and json print the elapsed time)
	// and pin each run's -cache file beside its stdout: the cache is keyed
	// by the candidates' memo keys, so a drift in how the sweep enumerates
	// or canonicalizes a candidate shows as a byte diff.
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"sweep-train", []string{"-models", "gpt-175b", "-gpus", "64,128", "-batches", "64,128", "-microbatches", "1,2"}},
		{"sweep-infer", []string{"-workload", "infer", "-models", "llama2-13b,gpt-175b", "-gpus", "1,2,8", "-batches", "1,4", "-seqs", "200,1000"}},
		{"sweep-serve", []string{"-workload", "serve", "-models", "llama2-13b", "-gpus", "2", "-rates", "2", "-policies", "reserve,paged,disagg", "-prefill-devices", "1", "-decode-devices", "1", "-prefix", "0,64", "-kv-host-gb", "0,4", "-replicas", "0,1,2", "-routings", "round-robin,least-kv", "-serve-requests", "24"}},
		{"sweep-serve-mix", []string{"-workload", "serve", "-models", "llama2-13b", "-gpus", "1", "-mix", "chat:0.7:200:200,batch:0.3:800:100;chat:0.5:300~0.5:100,code:0.5:500:50", "-rates", "1,4", "-policies", "reserve,paged", "-replicas", "0,2", "-routings", "round-robin,least-queue", "-serve-requests", "24"}},
		{"sweep-serve-trace", []string{"-workload", "serve", "-models", "llama2-13b", "-gpus", "1", "-trace", goldenTrace, "-policies", "reserve,paged,disagg", "-batch-caps", "0,4", "-replicas", "0,2"}},
		{"sweep-serve-sessions", []string{"-workload", "serve", "-models", "llama2-13b", "-gpus", "1", "-schedules", "0-5:2,5-10:6;0-10:3", "-turns", "0,1,3", "-think", "2", "-policies", "reserve,paged", "-replicas", "0,2", "-serve-requests", "24"}},
	} {
		name := tc.name + ".csv"
		t.Run(name, func(t *testing.T) {
			cache := filepath.Join(t.TempDir(), "cache.json")
			args := append(append([]string{}, tc.args...), "-format", "csv", "-cache", cache)
			out, err := captureStdout(t, func() error { return cmdSweep(args) })
			if err != nil {
				t.Fatalf("%v: %v", args, err)
			}
			checkGolden(t, args, name, []byte(out))
			cached, err := os.ReadFile(cache)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, args, tc.name+".cache", cached)
		})
	}
}

// checkGolden compares got against testdata/<name>.golden, or rewrites
// the file under -update.
func checkGolden(t *testing.T, args []string, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%v: output differs from %s\n got: %s\nwant: %s",
			args, path, firstLine(string(got)), firstLine(string(want)))
	}
}

// firstLine keeps a golden mismatch report short: the header line names
// the run, and a byte diff is one `diff` away.
func firstLine(s string) string {
	line, _, _ := strings.Cut(s, "\n")
	return line
}
