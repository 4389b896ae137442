package core

import (
	"math"
	"sync"
	"testing"

	"hetopt/internal/dna"
	"hetopt/internal/offload"
	"hetopt/internal/space"
)

// directPrediction is the prediction path priced without any table:
// PredictHost/PredictDevice for each engaged side, composed through
// HostModeledEnergy/DeviceModeledEnergy over the makespan.
func directPrediction(t *testing.T, p *Predictor, cfg space.Config) offload.Measurement {
	t.Helper()
	hostMB := p.workload.SizeMB * cfg.HostFraction / 100
	devMB := p.workload.SizeMB - hostMB
	var m offload.Measurement
	var err error
	if hostMB > 0 {
		if m.Times.Host, err = p.models.PredictHost(cfg.HostThreads, cfg.HostAffinity, hostMB); err != nil {
			t.Fatal(err)
		}
	}
	if devMB > 0 {
		if m.Times.Device, err = p.models.PredictDevice(cfg.DeviceThreads, cfg.DeviceAffinity, devMB); err != nil {
			t.Fatal(err)
		}
	}
	makespan := m.Times.E()
	if hostMB > 0 {
		if m.Energy.Host, err = p.power.HostModeledEnergy(cfg.HostThreads, cfg.HostAffinity, m.Times.Host, makespan); err != nil {
			t.Fatal(err)
		}
	}
	if devMB > 0 {
		if m.Energy.Device, err = p.power.DeviceModeledEnergy(cfg.DeviceThreads, cfg.DeviceAffinity, m.Times.Device, makespan); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func measurementBits(m offload.Measurement) [4]uint64 {
	return [4]uint64{
		math.Float64bits(m.Times.Host), math.Float64bits(m.Times.Device),
		math.Float64bits(m.Energy.Host), math.Float64bits(m.Energy.Device),
	}
}

// TestPredictedTableBitIdentical: for every configuration of the paper
// schema, the predicted table's value equals the direct prediction bit
// for bit, both through the search path (index vectors) and through
// Evaluate. Four workers fill the table concurrently, each taking every
// fourth ordinal (run under -race in CI).
func TestPredictedTableBitIdentical(t *testing.T) {
	platform := offload.NewPlatform()
	pred, err := NewPredictor(testModels(t, platform), offload.GenomeWorkload(dna.Human), platform.Model())
	if err != nil {
		t.Fatal(err)
	}
	schema := space.PaperSchema()
	sp := schema.Space()
	states := stateEvaluatorFor(schema, pred)
	const workers = 4
	bad := make([]space.Config, workers)
	failed := make([]bool, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for ord := g; ord < sp.Size(); ord += workers {
				idx, err := sp.Unflatten(ord)
				if err != nil {
					t.Error(err)
					return
				}
				cfg, err := schema.Config(idx)
				if err != nil {
					t.Error(err)
					return
				}
				got, err := states(idx)
				if err != nil {
					t.Error(err)
					return
				}
				viaEvaluate, err := pred.Evaluate(cfg)
				if err != nil {
					t.Error(err)
					return
				}
				want := directPrediction(t, pred, cfg)
				if measurementBits(got) != measurementBits(want) || measurementBits(viaEvaluate) != measurementBits(want) {
					bad[g], failed[g] = cfg, true
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g := range failed {
		if failed[g] {
			t.Fatalf("%v: tabled prediction differs from the direct one", bad[g])
		}
	}
}

// TestPredictorRejectsNaNFraction: a NaN host fraction fails every
// comparison, so a range check written as "< 0 || > 100" let it
// through, and both shares went NaN and were skipped, giving E = 0
// with no error. Prediction must reject it like measurement does,
// whether or not the predictor has a table.
func TestPredictorRejectsNaNFraction(t *testing.T) {
	platform := offload.NewPlatform()
	w := offload.GenomeWorkload(dna.Human)
	pred, err := NewPredictor(testModels(t, platform), w, platform.Model())
	if err != nil {
		t.Fatal(err)
	}
	cfg := space.Config{HostThreads: 48, HostAffinity: 1, DeviceThreads: 240, DeviceAffinity: 3, HostFraction: math.NaN()}
	if _, err := platform.MeasureFull(w, cfg, 0); err == nil {
		t.Fatal("measurement accepted a NaN fraction")
	}
	if m, err := pred.Evaluate(cfg); err == nil {
		t.Fatalf("prediction accepted a NaN fraction: %+v", m)
	}
	pred.table(space.PaperSchema())
	if m, err := pred.Evaluate(cfg); err == nil {
		t.Fatalf("tabled prediction accepted a NaN fraction: %+v", m)
	}
}
