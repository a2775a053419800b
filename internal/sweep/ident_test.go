package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"optimus/internal/arch"
	"optimus/internal/memfoot"
	"optimus/internal/model"
	"optimus/internal/parallel"
	"optimus/internal/serve"
	"optimus/internal/tech"
	"optimus/internal/workload"
)

// refKey writes out the persisted key layout with fmt, sharing no code with
// the formatter (identOf, appendKey, the token helpers, FormatSchedule):
// the model and system tokens, the 23 integer fields, the seed, the five
// floats in their shortest 'g' form, the schedule as start-end:rate spans
// and the workload fingerprint.
func refKey(p Point) string {
	fp := func(v any) string {
		h := fnv.New64a()
		fmt.Fprintf(h, "%+v", v)
		return fmt.Sprintf("%x", h.Sum64())
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s#%s|%s#%s", p.Model.Name, fp(p.Model), p.System.String(), fp(*p.System))
	sp := 0
	if p.Map.SP {
		sp = 1
	}
	for _, v := range []int{
		int(p.Workload), p.Map.DP, p.Map.TP, p.Map.PP, sp, p.Map.Microbatch,
		int(p.Map.Schedule), p.Map.VirtualStages, int(p.Recompute), int(p.Precision),
		p.GlobalBatch, p.Seq, p.GenTokens, p.BatchCap, p.ServeRequests, int(p.Policy),
		p.PageTokens, p.PrefillDevices, p.DecodeDevices, p.Replicas, int(p.Routing),
		p.PrefixTokens, p.Turns,
	} {
		fmt.Fprintf(&b, "|%d", v)
	}
	fmt.Fprintf(&b, "|%d", p.ServeSeed)
	for _, f := range []float64{p.Rate, p.TransferGBps, p.HostKVBytes, p.SwapGBps, p.Think} {
		fmt.Fprintf(&b, "|%v", f)
	}
	b.WriteString("|")
	for i, seg := range p.Schedule {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, "%s-%s:%s", strconv.FormatFloat(seg.Start, 'f', -1, 64),
			strconv.FormatFloat(seg.End, 'f', -1, 64), strconv.FormatFloat(seg.Rate, 'f', -1, 64))
	}
	b.WriteString("|")
	switch {
	case len(p.Trace) > 0:
		b.WriteString("trace#" + fp(p.Trace))
	case len(p.Mix) > 0:
		b.WriteString("mix#" + fp(p.Mix))
	}
	return b.String()
}

// identGrids covers every shape of candidate: training, inference, and
// serving with spec-wide shapes under every policy knob, a mix, a trace, a
// schedule with session turns, and a fleet.
func identGrids(t *testing.T) map[string]Spec {
	t.Helper()
	train := trainSpec0(t)
	train.GlobalBatches = []int{8, 16}
	train.Precisions = []tech.Precision{tech.BF16, tech.FP16}
	infer := trainSpec0(t)
	infer.Workload, infer.Seqs, infer.GenTokens = Inference, []int{200, 1000}, []int{50, 200}
	policies := servingSpec0(t)
	policies.Policies = []serve.Policy{serve.ReserveFull, serve.Paged, serve.Disaggregated}
	policies.ServePageTokens = 32
	policies.PoolSplits = []PoolSplit{{}, {Prefill: 1, Decode: 1}}
	policies.TransferGBps = math.Inf(1)
	policies.PrefixTokens = []int{0, 64}
	policies.HostKVBytes = []float64{0, 4e9}
	policies.SwapGBps = 12.5
	trace := servingSpec0(t)
	trace.Rates, trace.ServeRequests, trace.Trace = nil, 0, trace0()
	temporal := servingSpec0(t)
	temporal.Rates = nil
	temporal.Schedules = []workload.Schedule{
		{{Start: 0, End: 10, Rate: 1}, {Start: 10, End: 20.5, Rate: 4}},
		{{Start: 0, End: 60, Rate: 2}},
	}
	temporal.Policies = []serve.Policy{serve.ReserveFull, serve.Paged}
	temporal.Turns, temporal.Think = []int{0, 3}, 1.5
	return map[string]Spec{
		"train": train, "infer": infer, "policies": policies, "mix": mixSpec0(t),
		"trace": trace, "temporal": temporal, "fleet": fleetSpec0(t),
	}
}

// TestKeyMatchesReference is the key oracle: on every enumerated
// candidate, Point.Key equals the fmt-built reference, the key parses back
// into exactly the identity the engine memoizes the candidate under, and
// that identity formats back to the same bytes.
func TestKeyMatchesReference(t *testing.T) {
	for name, s := range identGrids(t) {
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		toks := newTokens()
		n := 0
		forEachCell(s, toks, func(points []Point, tok cellTokens) {
			for i := range points {
				p := &points[i]
				n++
				k := p.Key()
				if ref := refKey(*p); k != ref {
					t.Fatalf("%s: Key\n%s\nreference\n%s", name, k, ref)
				}
				id, err := toks.parseKey(k)
				if err != nil {
					t.Fatalf("%s: key %q does not parse: %v", name, k, err)
				}
				if id != identOf(p, tok) {
					t.Fatalf("%s: key %q parses to an identity the engine does not use", name, k)
				}
				if got := toks.key(&id); got != k {
					t.Fatalf("%s: key %q formats back as %q", name, k, got)
				}
			}
		})
		if n == 0 {
			t.Fatalf("%s: empty grid", name)
		}
	}
}

// TestEnumerateDedupsRepeatedAxes: a grid with every axis repeated —
// models, systems (an equal copy under another pointer), precisions,
// batches, sequences, generation lengths, microbatches, recomputes,
// schedules, and the serving axes — enumerates exactly the candidates of
// the deduplicated grid, in the same order, and exactly what a
// per-candidate seen set over the repeated grid's cells keeps.
func TestEnumerateDedupsRepeatedAxes(t *testing.T) {
	gpt22, gpt7 := model.GPT22B(), model.GPT7B()
	a := dgxSystem(t, 8)
	b := dgxSystem(t, 16)
	aCopy := *a
	twice := func(xs ...int) []int { return append(xs, xs...) }
	train := Spec{
		Models:        []model.Config{gpt22, gpt7, gpt22},
		Systems:       []*arch.System{a, b, &aCopy},
		Precisions:    []tech.Precision{tech.BF16, tech.FP16, tech.BF16},
		GlobalBatches: twice(16, 32),
		Seqs:          twice(2048),
		Constraints: Constraints{
			Microbatches: twice(1, 2),
			Recomputes:   []memfoot.Recompute{memfoot.Selective, memfoot.NoRecompute, memfoot.Selective},
			Schedules:    []parallel.Schedule{parallel.Interleaved1F1B, parallel.OneFOneB, parallel.Interleaved1F1B},
		},
	}
	trainUnique := train
	trainUnique.Models, trainUnique.Systems = train.Models[:2], train.Systems[:2]
	trainUnique.Precisions, trainUnique.GlobalBatches, trainUnique.Seqs = train.Precisions[:2], train.GlobalBatches[:2], train.Seqs[:1]
	trainUnique.Constraints = Constraints{
		Microbatches: train.Constraints.Microbatches[:2],
		Recomputes:   train.Constraints.Recomputes[:2],
		Schedules:    train.Constraints.Schedules[:2],
	}
	infer := Spec{
		Workload: Inference, Models: train.Models, Systems: train.Systems, Precisions: train.Precisions,
		GlobalBatches: twice(1, 4), Seqs: twice(200), GenTokens: twice(100, 50),
	}
	inferUnique := infer
	inferUnique.Models, inferUnique.Systems, inferUnique.Precisions = trainUnique.Models, trainUnique.Systems, trainUnique.Precisions
	inferUnique.GlobalBatches, inferUnique.Seqs, inferUnique.GenTokens = infer.GlobalBatches[:2], infer.Seqs[:1], infer.GenTokens[:2]
	serving := servingSpec0(t)
	serving.Models = append(serving.Models, serving.Models...)
	serving.Rates = append(serving.Rates, serving.Rates...)
	serving.BatchCaps = twice(serving.BatchCaps...)
	serving.Policies = []serve.Policy{serve.Paged, serve.ReserveFull, serve.Paged}
	servingUnique := servingSpec0(t)
	servingUnique.Policies = serving.Policies[:2]

	for _, c := range []struct {
		name             string
		repeated, unique Spec
	}{
		{"train", train, trainUnique},
		{"infer", infer, inferUnique},
		{"serve", serving, servingUnique},
	} {
		if err := c.repeated.Validate(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got, want := Enumerate(c.repeated), Enumerate(c.unique)
		if len(want) == 0 {
			t.Fatalf("%s: empty grid", c.name)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: repeated axes enumerate %d candidates, the deduplicated grid %d (or a different order)",
				c.name, len(got), len(want))
		}
		if c.repeated.Workload == Serving {
			continue
		}
		if naive := naiveEnumerate(c.repeated); !reflect.DeepEqual(got, naive) {
			t.Errorf("%s: Enumerate gives %d candidates, a per-candidate seen set %d (or a different order)",
				c.name, len(got), len(naive))
		}
	}
}

// naiveEnumerate walks a training or inference grid's axes as given,
// duplicates included, and drops every candidate whose Key it has seen.
func naiveEnumerate(s Spec) []Point {
	s = s.withDefaults()
	seen := make(map[string]bool)
	var out []Point
	for _, cfg := range s.Models {
		for _, sys := range s.Systems {
			for _, prec := range s.Precisions {
				for _, batch := range s.GlobalBatches {
					for _, seq := range s.Seqs {
						var cell []Point
						if s.Workload == Inference {
							for _, gen := range s.GenTokens {
								cell = append(cell, enumerateInference(cfg, sys, batch, seq, gen, prec)...)
							}
						} else {
							cell = EnumerateTraining(cfg, sys, batch, seq, prec, s.Constraints)
						}
						for _, p := range cell {
							if k := p.Key(); !seen[k] {
								seen[k] = true
								out = append(out, p)
							}
						}
					}
				}
			}
		}
	}
	return out
}

func dgxSystem(t *testing.T, gpus int) *arch.System {
	t.Helper()
	sys, err := arch.DGXA100(gpus)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestCacheGoldenKeysRoundTrip: every key of every cache file the CLI
// goldens pin parses and formats back to the same bytes, and a snapshot
// loaded from a golden saves back to the golden byte for byte.
func TestCacheGoldenKeysRoundTrip(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "cmd", "optimus", "testdata", "*.cache.golden"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no cache goldens found (%v)", err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var file struct {
			Entries map[string]json.RawMessage `json:"entries"`
		}
		if err := json.Unmarshal(data, &file); err != nil {
			t.Fatal(err)
		}
		toks := newTokens()
		for k := range file.Entries {
			id, err := toks.parseKey(k)
			if err != nil {
				t.Fatalf("%s: key %q does not parse: %v", path, k, err)
			}
			if got := toks.key(&id); got != k {
				t.Errorf("%s: key %q formats back as %q", path, k, got)
			}
		}
		eng := New(1)
		if err := eng.LoadCache(bytes.NewReader(data)); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		var out bytes.Buffer
		if err := eng.SaveCache(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Errorf("%s: load + save is not byte-identical", path)
		}
	}
}

// TestLoadCacheRejectsMalformedKey: a key SaveCache could not have written
// fails the load with an error naming the entry, and nothing of the
// snapshot merges — not even its well-formed entries.
func TestLoadCacheRejectsMalformedKey(t *testing.T) {
	eng := New(1)
	if _, err := eng.Run(context.Background(), trainSpec0(t)); err != nil {
		t.Fatal(err)
	}
	var saved bytes.Buffer
	if err := eng.SaveCache(&saved); err != nil {
		t.Fatal(err)
	}
	var file cacheFile
	if err := json.Unmarshal(saved.Bytes(), &file); err != nil {
		t.Fatal(err)
	}
	var good string
	for k := range file.Entries {
		if good == "" || k < good {
			good = k
		}
	}
	fields := strings.Split(good, "|")
	n := len(fields)
	with := func(i int, v string) string {
		f := append([]string(nil), fields...)
		f[i] = v
		return strings.Join(f, "|")
	}
	bad := map[string]string{
		"truncated":           strings.Join(fields[:n-1], "|"),
		"truncated mid-field": good[:len(good)/2],
		"no model token":      strings.Join(fields[1:], "|"),
		"empty cell":          "|" + strings.Join(fields[2:], "|"),
		"extra field":         strings.Join(append([]string{fields[0], fields[1], "7"}, fields[2:]...), "|"),
		"leading zero":        with(n-31, "0"+fields[n-31]),
		"plus sign":           with(n-31, "+"+fields[n-31]),
		"negative zero int":   with(n-20, "-0"),
		"int overflow":        with(n-20, "9223372036854775808"),
		"empty int":           with(n-20, ""),
		"long float form":     with(n-7, "1.0"),
		"padded zero float":   with(n-7, "0.0"),
		"NaN":                 with(n-7, "NaN"),
		"unsigned Inf":        with(n-7, "Inf"),
		"bad fingerprint":     with(1, strings.SplitN(fields[1], "#", 2)[0]+"#XYZ"),
		"schedule letters":    with(n-2, "0-10:x"),
		"workload kind":       with(n-1, "mux#1f"),
		"workload hex":        with(n-1, "mix#0"+"1f"),
		"empty":               "",
	}
	for name, k := range bad {
		file.Entries[k] = Metrics{Time: 1}
		data, err := json.Marshal(file)
		delete(file.Entries, k)
		if err != nil {
			t.Fatal(err)
		}
		cold := New(1)
		err = cold.LoadCache(bytes.NewReader(data))
		if err == nil {
			t.Errorf("%s: key %q loaded", name, k)
			continue
		}
		if want := truncateKey(k); !strings.Contains(err.Error(), "entry "+want) {
			t.Errorf("%s: error %q does not name the entry %s", name, err, want)
		}
		if cold.CacheSize() != 0 {
			t.Errorf("%s: a rejected snapshot merged %d entries", name, cold.CacheSize())
		}
	}
	// The last-field forms the parser must keep accepting.
	for name, k := range map[string]string{
		"negative int":  with(n-20, "-3"),
		"infinite link": with(n-6, "+Inf"),
		"negative zero": with(n-6, "-0"),
		"schedule":      with(n-2, "0-10.5:2,10.5-20:4"),
		"trace":         with(n-1, "trace#a6c54cc0a90305b"),
		"'|' in a name": "M#1|S|x#2" + good[len(fields[0])+1+len(fields[1]):],
	} {
		if _, err := newTokens().parseKey(k); err != nil {
			t.Errorf("%s: key %q rejected: %v", name, k, err)
		}
	}
}

// FuzzLoadCache feeds LoadCache random and mutated snapshots. It must never
// panic, and a snapshot it accepts must come back through SaveCache with
// the same keys and metrics — and saving that again must not change a
// byte.
func FuzzLoadCache(f *testing.F) {
	// Real keys and metrics seed it one compact entry at a time: the
	// fuzzer minimizes every input that finds new coverage before going on,
	// which takes it tens of seconds on a multi-kilobyte snapshot.
	// TestCacheGoldenKeysRoundTrip covers the whole goldens.
	data, err := os.ReadFile(filepath.Join("..", "..", "cmd", "optimus", "testdata", "sweep-serve-trace.cache.golden"))
	if err != nil {
		f.Fatal(err)
	}
	var golden cacheFile
	if err := json.Unmarshal(data, &golden); err != nil {
		f.Fatal(err)
	}
	for k, m := range golden.Entries {
		one := golden
		one.Entries = map[string]Metrics{k: m}
		seed, err := json.Marshal(one)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	head := `{"version":1,"cost_model":"` + costModelVersion + `","entries":{`
	key := "M#1|S|x#2|" + strings.Repeat("0|", numIntFields+numFloatFields) + "|"
	f.Add([]byte(head + `"` + key + `":{"Time":1}}}`))
	f.Add([]byte(head + `"` + strings.TrimSuffix(key, "|") + `":{"Time":1}}}`))
	f.Add([]byte(head + `"M#1|S#2|` + strings.Repeat("1|", numIntFields) + `0.5|+Inf|-0|1e+21|3||trace#ff":{"PerTenant":[]}}}`))
	f.Add([]byte(head + `}}`))
	f.Add([]byte(`{"version":1}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		eng := New(1)
		if eng.LoadCache(bytes.NewReader(data)) != nil {
			return
		}
		var saved bytes.Buffer
		if err := eng.SaveCache(&saved); err != nil {
			t.Fatalf("accepted snapshot does not save: %v", err)
		}
		decode := func(b []byte) map[string]Metrics {
			var file cacheFile
			if err := json.NewDecoder(bytes.NewReader(b)).Decode(&file); err != nil {
				t.Fatalf("accepted snapshot does not decode: %v", err)
			}
			if file.Entries == nil {
				file.Entries = map[string]Metrics{}
			}
			return file.Entries
		}
		if in, out := decode(data), decode(saved.Bytes()); !reflect.DeepEqual(in, out) {
			t.Fatalf("loaded %d entries, saved %d (or changed a key or metric)", len(in), len(out))
		}
		again := New(1)
		if err := again.LoadCache(bytes.NewReader(saved.Bytes())); err != nil {
			t.Fatalf("saved snapshot does not load: %v", err)
		}
		var resaved bytes.Buffer
		if err := again.SaveCache(&resaved); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(saved.Bytes(), resaved.Bytes()) {
			t.Fatal("save → load → save changed the snapshot")
		}
	})
}
