package main

import "testing"

// opDigest sets a workload up at seed and returns the digest of op i.
func opDigest(t *testing.T, w benchWorkload, seed int64, i int) string {
	t.Helper()
	cfg := config{seed: seed, procs: 1, dir: t.TempDir()}
	if err := w.prepare(cfg); err != nil {
		t.Fatal(err)
	}
	inst, err := w.setup(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := inst.op(i, nil)
	if out.err != nil {
		t.Fatal(out.err)
	}
	return out.digest
}

func TestDigestFollowsTheSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload's setup")
	}
	for name, w := range workloads {
		t.Run(name, func(t *testing.T) {
			a, b := opDigest(t, w, 1, 0), opDigest(t, w, 1, 0)
			if a != b {
				t.Errorf("same seed, digests %s and %s", a, b)
			}
			if c := opDigest(t, w, 2, 0); c == a {
				t.Errorf("seeds 1 and 2 gave the same digest %s", a)
			}
		})
	}
}

func TestTracedOpMatchesUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload's setup")
	}
	for name, w := range workloads {
		t.Run(name, func(t *testing.T) {
			cfg := config{seed: 3, procs: 1, dir: t.TempDir()}
			if err := w.prepare(cfg); err != nil {
				t.Fatal(err)
			}
			inst, err := w.setup(cfg)
			if err != nil {
				t.Fatal(err)
			}
			l := newLedger()
			l.record(inst.op(0, nil), false)
			tr := newTracer()
			tr.setOp(1)
			l.record(inst.op(inst.cycle(), tr), true)
			if l.failed != 0 {
				t.Fatalf("traced op disagrees with the untraced one: %q", l.failures)
			}
			if len(tr.spans) == 0 || tr.spans[0].Name != "bench.op" {
				t.Fatalf("traced op recorded %d spans, first %+v", len(tr.spans), tr.spans)
			}
		})
	}
}
