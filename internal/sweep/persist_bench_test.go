package sweep_test

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"optimus/internal/arch"
	"optimus/internal/model"
	"optimus/internal/sweep"
	"optimus/internal/tech"
)

// coarseStudyCache is the memo of a coarse design study — GPT-175B/530B/
// 1008B on A100, H100 and B200 systems of 64–512 GPUs at batch 1024 and
// sequence 2048, about 770 evaluations — persisted with SaveCache.
func coarseStudyCache(tb testing.TB) []byte {
	tb.Helper()
	eng := sweep.New(2)
	for _, d := range []struct {
		dev          arch.Device
		intra, inter tech.NetworkTech
	}{
		{arch.A100(), tech.NVLink3, tech.IBHDR},
		{arch.H100(), tech.NVLink4, tech.IBNDR},
		{arch.B200(), tech.NVLink5, tech.IBNDR},
	} {
		var systems []*arch.System
		for _, n := range []int{64, 128, 256, 512} {
			sys, err := arch.SystemOf(d.dev, n, 8, d.intra, d.inter)
			if err != nil {
				tb.Fatal(err)
			}
			systems = append(systems, sys)
		}
		spec := sweep.Spec{
			Models:        []model.Config{model.GPT175B(), model.GPT530B(), model.GPT1008B()},
			Systems:       systems,
			GlobalBatches: []int{1024},
		}
		if _, err := eng.Run(context.Background(), spec); err != nil {
			tb.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := eng.SaveCache(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkLoadCache times loading the coarse study's persisted memo into
// a fresh engine: JSON decoding plus turning each key into the engine's
// memo identity — the setup cost of every resumed design session.
func BenchmarkLoadCache(b *testing.B) {
	data := coarseStudyCache(b)
	var file struct {
		Entries map[string]json.RawMessage `json:"entries"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sweep.New(1).LoadCache(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(file.Entries)), "entries")
}
