package main

import (
	"optimus/internal/arch"
	"optimus/internal/infer"
	"optimus/internal/repro"
	"optimus/internal/tech"
	"optimus/internal/train"
	"optimus/internal/units"
	"optimus/internal/valdata"
)

// accuracyPct is the model's mean relative error, in percent, against the
// published measurements in internal/valdata.
type accuracyPct struct{ train, infer float64 }

// accuracy predicts every Table 1 row with train.Predict and every Table
// 2 row on A100 and H100 with infer.Predict, exactly as the paper's
// validation does. It runs after the timed ops, outside every op span.
func accuracy(tr *tracer) (accuracyPct, error) {
	sp := tr.begin("repro.accuracy")
	defer tr.end(sp)
	var trainErrs, inferErrs []float64
	for _, c := range valdata.Table1() {
		spec, err := repro.TrainSpecFor(c)
		if err != nil {
			return accuracyPct{}, err
		}
		res, err := train.Predict(spec)
		if err != nil {
			return accuracyPct{}, err
		}
		trainErrs = append(trainErrs, units.RelErr(res.Total, c.RefSeconds))
	}
	for _, c := range valdata.Table2() {
		for _, g := range []struct {
			dev   arch.Device
			nv    tech.NetworkTech
			refMs float64
		}{{arch.A100(), tech.NVLink3, c.RefA100Ms}, {arch.H100(), tech.NVLink4, c.RefH100Ms}} {
			spec, err := repro.InferSpecFor(c.Model, c.GPUs, g.dev, g.nv)
			if err != nil {
				return accuracyPct{}, err
			}
			res, err := infer.Predict(spec)
			if err != nil {
				return accuracyPct{}, err
			}
			inferErrs = append(inferErrs, units.RelErr(res.Total*1e3, g.refMs))
		}
	}
	return accuracyPct{train: 100 * units.Mean(trainErrs), infer: 100 * units.Mean(inferErrs)}, nil
}
