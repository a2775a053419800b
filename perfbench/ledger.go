package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"optimus/internal/serve"
)

// outcome is one op as the ledger sees it.
type outcome struct {
	// key names the op's input: equal keys must give equal digests, within
	// a run and between the traced and untraced runs.
	key    string
	digest string
	// secs is the host CPU time of the op's library calls alone, over
	// every thread of the process; wall is their wall-clock time.
	secs, wall float64
	// work is the op's unit count for work_per_s: candidates enumerated
	// or simulated requests completed.
	work float64
	// err is non-nil when the op returned an error or failed a check.
	err error
}

// ledger counts attempted and failed ops and keeps the timed samples.
type ledger struct {
	attempted, failed int
	failures          []string
	digests           map[string]string

	secs, walls []float64
	byKey       map[string][]float64
	work        float64
	busy        float64
	wallBusy    float64
}

// maxFailures bounds the failure reasons a run prints.
const maxFailures = 8

func newLedger() *ledger {
	return &ledger{digests: map[string]string{}, byKey: map[string][]float64{}}
}

// fail counts a failed check that is not an op, such as a pre-timing
// comparison.
func (l *ledger) fail(what string, err error) {
	l.attempted++
	if err == nil {
		return
	}
	l.failed++
	if len(l.failures) < maxFailures {
		l.failures = append(l.failures, what+": "+err.Error())
	}
}

// record counts one op. An op fails when it returned an error or its
// digest differs from an earlier op with the same key; only timed ops
// feed the timing samples.
func (l *ledger) record(o outcome, timed bool) {
	err := o.err
	if err == nil && o.key != "" {
		if prev, ok := l.digests[o.key]; !ok {
			l.digests[o.key] = o.digest
		} else if prev != o.digest {
			err = fmt.Errorf("digest %s differs from the earlier %s", o.digest, prev)
		}
	}
	l.fail("op "+o.key, err)
	if timed {
		l.secs = append(l.secs, o.secs)
		l.walls = append(l.walls, o.wall)
		l.byKey[o.key] = append(l.byKey[o.key], o.secs)
		l.work += o.work
		l.busy += o.secs
		l.wallBusy += o.wall
	}
}

func (l *ledger) failRatio() float64 {
	if l.attempted == 0 {
		return 0
	}
	return float64(l.failed) / float64(l.attempted)
}

// digest fingerprints a model output. %v prints floats in their shortest
// exact form and calls String on enums, so equal digests mean
// bit-identical values.
func digest(parts ...any) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%v\x00", p)
	}
	return sum(h)
}

// serveDigest fingerprints a serve.Result. The per-request timelines are
// folded in field by field: printing them would cost more than the
// simulation that produced them.
func serveDigest(r serve.Result) string {
	h := sha256.New()
	rows := r.PerRequest
	r.PerRequest = nil
	fmt.Fprintf(h, "%v\x00", r)
	var b [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	f := func(x float64) { put(math.Float64bits(x)) }
	for _, q := range rows {
		io.WriteString(h, q.Tenant)
		put(uint64(q.ID))
		put(uint64(q.PromptTokens))
		put(uint64(q.GenTokens))
		put(uint64(q.Preemptions))
		put(uint64(q.KVTransfers))
		f(q.Arrival)
		f(q.Admitted)
		f(q.FirstToken)
		f(q.Done)
		f(q.Queue)
		f(q.TTFT)
		f(q.TPOT)
		f(q.E2E)
		f(q.KVTransferTime)
	}
	return sum(h)
}

func sum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)[:12]) }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minBeyond is the sample count a reported tail percentile must leave
// above it.
const minBeyond = 10

// tail is the highest percentile with at least minBeyond samples beyond it.
type tail struct {
	value  float64
	pct    float64
	n      int
	beyond int
}

// tailOf picks the sample of rank n-minBeyond (1-based) of the sorted
// samples: exactly minBeyond samples rank above it, so it is the p(100·
// (n-minBeyond)/n) percentile. With too few samples it reports the
// maximum, with nothing beyond it.
func tailOf(xs []float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{value: math.NaN()}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n <= minBeyond {
		return tail{value: s[n-1], pct: 100, n: n}
	}
	k := n - minBeyond
	return tail{value: s[k-1], pct: 100 * float64(k) / float64(n), n: n, beyond: minBeyond}
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		f := strings.Fields(line)
		if len(f) >= 2 {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

// since returns the seconds elapsed from start.
func since(start time.Time) float64 { return time.Since(start).Seconds() }

// clock measures an interval in host CPU time and in wall time.
type clock struct {
	cpu  float64
	wall time.Time
}

func startClock() clock { return clock{cpuSeconds(), time.Now()} }

// stop returns the CPU and wall seconds since the clock started.
func (c clock) stop() (cpu, wall float64) {
	return cpuSeconds() - c.cpu, since(c.wall)
}

// cpuSeconds is the CPU time the process has used, over all its threads:
// the callers' own, the sweep workers' and fleet replicas', and the
// garbage collector's. Unlike wall time it excludes the time other
// tenants of a shared host take from this one.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
}
