package main

import (
	"os"
	"path/filepath"
	"testing"
)

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestReadRunParsesWallTime(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.out")
	out := "workload serve-sessions seed 3: why\n" +
		"wall time: op p50 12.5 ms, op tail 20 ms, 4000 work/s\n" +
		`{"correct":true,"attempted":9,"failed":0,"metrics":{"work_per_s":{"value":8000,"unit":"1/s"}}}` + "\n"
	if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := readRun(path)
	if err != nil {
		t.Fatal(err)
	}
	if r.workload != "serve-sessions" || r.wallP50 != 12.5 || r.wallWork != 4000 {
		t.Fatalf("readRun = %+v", r)
	}
	// Twice the work per CPU second as per wall second: the ops' wall
	// time is twice their CPU time.
	p50, work, ratio := wallOf([]run{r})
	if p50 != 12.5 || work != 4000 || ratio != 2 {
		t.Fatalf("wallOf = %g %g %g, want 12.5 4000 2", p50, work, ratio)
	}
}
