package core

import (
	"testing"

	"hetopt/internal/dna"
	"hetopt/internal/machine"
	"hetopt/internal/offload"
	"hetopt/internal/space"
)

// TestPredictorEvaluateSteadyStateZeroAllocs pins the prediction path
// as allocation-free: with the unit table warm, Evaluate is a schema
// lookup, two slot loads and arithmetic; without a table it predicts
// directly, still without allocating. The model-based methods (EML,
// SAML) spend their entire search budget on this path.
func TestPredictorEvaluateSteadyStateZeroAllocs(t *testing.T) {
	platform := offload.NewPlatform()
	w := offload.GenomeWorkload(dna.Human)
	models := testModels(t, platform)
	pred, err := NewPredictor(models, w, platform.Model())
	if err != nil {
		t.Fatal(err)
	}
	cfg := space.Config{
		HostThreads: 48, HostAffinity: machine.AffinityScatter,
		DeviceThreads: 240, DeviceAffinity: machine.AffinityBalanced,
		HostFraction: 60,
	}
	for _, tabled := range []bool{false, true} {
		if tabled {
			pred.table(space.PaperSchema())
		}
		if _, err := pred.Evaluate(cfg); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := pred.Evaluate(cfg); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("steady-state Evaluate (tabled %v) allocates %g allocs/op, want 0", tabled, allocs)
		}
	}
}

// TestModelsPredictZeroAllocs pins a prediction miss as allocation-free:
// the sample is encoded and normalized in a stack array and handed to
// the compiled ensemble without escaping.
func TestModelsPredictZeroAllocs(t *testing.T) {
	models := testModels(t, offload.NewPlatform())
	size := 0.0
	allocs := testing.AllocsPerRun(200, func() {
		size++
		if _, err := models.PredictHost(48, machine.AffinityScatter, size); err != nil {
			t.Fatal(err)
		}
		if _, err := models.PredictDevice(240, machine.AffinityBalanced, size); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("PredictHost+PredictDevice allocate %g allocs/op, want 0", allocs)
	}
}
