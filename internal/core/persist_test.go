package core

import (
	"bytes"
	"encoding/gob"
	"path/filepath"
	"strings"
	"testing"

	"hetopt/internal/dna"
	"hetopt/internal/machine"
	"hetopt/internal/ml"
	"hetopt/internal/offload"
)

func TestModelsSaveLoadRoundTrip(t *testing.T) {
	platform := offload.NewPlatform()
	orig := testModels(t, platform)

	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModels(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Predictions must be bit-identical across the round trip.
	for _, probe := range []struct {
		threads int
		aff     machine.Affinity
		sizeMB  float64
	}{
		{48, machine.AffinityScatter, 1500},
		{4, machine.AffinityNone, 300},
		{24, machine.AffinityCompact, 2800},
	} {
		a, err := orig.PredictHost(probe.threads, probe.aff, probe.sizeMB)
		if err != nil {
			t.Fatal(err)
		}
		b, err := loaded.PredictHost(probe.threads, probe.aff, probe.sizeMB)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("host prediction diverged: %g vs %g", a, b)
		}
	}
	da, err := orig.PredictDevice(240, machine.AffinityBalanced, 2000)
	if err != nil {
		t.Fatal(err)
	}
	db, err := loaded.PredictDevice(240, machine.AffinityBalanced, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if da != db {
		t.Fatalf("device prediction diverged: %g vs %g", da, db)
	}
	// Headline accuracy survives.
	if loaded.HostReport.Eval.MeanPercentError != orig.HostReport.Eval.MeanPercentError {
		t.Fatal("host accuracy lost in round trip")
	}
	if loaded.Kind != BoostedTrees {
		t.Fatalf("kind = %v", loaded.Kind)
	}
}

func TestLoadedModelsDriveOptimization(t *testing.T) {
	platform := offload.NewPlatform()
	orig := testModels(t, platform)
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModels(&buf)
	if err != nil {
		t.Fatal(err)
	}
	w := offload.GenomeWorkload(dna.Cat)
	pred, err := NewPredictor(loaded, w, platform.Model())
	if err != nil {
		t.Fatal(err)
	}
	inst := &Instance{Schema: smallSchema(t), Measurer: NewMeasurer(platform, w), Predictor: pred}
	res, err := Run(SAML, inst, Options{Iterations: 200, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeasuredE() <= 0 {
		t.Fatal("loaded models produced an unusable run")
	}
}

func TestModelsFileHelpers(t *testing.T) {
	platform := offload.NewPlatform()
	orig := testModels(t, platform)
	path := filepath.Join(t.TempDir(), "models.gob")
	if err := SaveModelsFile(orig, path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModelsFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.DeviceReport.Eval.MeanPercentError != orig.DeviceReport.Eval.MeanPercentError {
		t.Fatal("file round trip lost accuracy numbers")
	}
	if _, err := LoadModelsFile(filepath.Join(t.TempDir(), "missing.gob")); err == nil {
		t.Error("missing file should fail")
	}
}

func TestSaveRejectsNonBoosted(t *testing.T) {
	platform := offload.NewPlatform()
	models, err := Train(platform, smallPlan(), TrainOptions{Kind: Linear, SplitSeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := models.Save(&buf); err == nil {
		t.Fatal("linear models must not persist")
	}
}

func TestLoadModelsRejectsGarbage(t *testing.T) {
	if _, err := LoadModels(bytes.NewReader([]byte("garbage"))); err == nil {
		t.Fatal("garbage should fail")
	}
}

// encodeBundle saves orig with its host model replaced by host (and the
// host normalizer by norm when non-nil), as a corrupted or foreign file
// would carry them.
func encodeBundle(t *testing.T, orig *Models, host *ml.BoostedTrees, norm *ml.Normalizer) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var header persistedModels
	if err := gob.NewDecoder(&buf).Decode(&header); err != nil {
		t.Fatal(err)
	}
	var blob bytes.Buffer
	if err := host.Save(&blob); err != nil {
		t.Fatal(err)
	}
	header.HostModel = blob.Bytes()
	if norm != nil {
		header.HostNorm = *norm
	}
	var out bytes.Buffer
	if err := gob.NewEncoder(&out).Encode(header); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

func TestLoadModelsRejectsFeatureMismatch(t *testing.T) {
	orig := testModels(t, offload.NewPlatform())
	// A model fitted on wider samples splits on feature 9. Before the
	// check it loaded, and the first prediction panicked indexing the
	// 5-feature sample.
	wide := &ml.Dataset{}
	for i := 0; i < 64; i++ {
		x := make([]float64, 10)
		x[9] = float64(i)
		wide.Append(x, float64(i*i))
	}
	host, err := ml.FitBoostedTrees(wide, ml.BoostOptions{Rounds: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if host.MaxFeature() != 9 {
		t.Fatalf("fixture splits up to feature %d, want 9", host.MaxFeature())
	}
	if _, err := LoadModels(bytes.NewReader(encodeBundle(t, orig, host, nil))); err == nil || !strings.Contains(err.Error(), "feature 9") {
		t.Fatalf("model splitting on feature 9: got %v, want a feature error", err)
	}
	short := &ml.Normalizer{Min: []float64{0, 0}, Max: []float64{1, 1}}
	good := orig.Host.(*ml.BoostedTrees)
	if _, err := LoadModels(bytes.NewReader(encodeBundle(t, orig, good, short))); err == nil || !strings.Contains(err.Error(), "normalizer") {
		t.Fatalf("2-column normalizer: got %v, want a normalizer error", err)
	}
	if _, err := LoadModels(bytes.NewReader(encodeBundle(t, orig, good, nil))); err != nil {
		t.Fatalf("unmodified bundle: %v", err)
	}
}
