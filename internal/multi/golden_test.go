package multi

import (
	"fmt"
	"math"
	"testing"

	"hetopt/internal/dna"
	"hetopt/internal/offload"
	"hetopt/internal/strategy"
)

// mfp64 renders a float64 by its exact bit pattern.
func mfp64(x float64) string { return fmt.Sprintf("%016x", math.Float64bits(x)) }

// TestDNAPaperPlatformGolden pins the multi-accelerator tuner's
// DNA-on-paper-platform result to a golden value captured before the
// scenario-layer refactor: the scenario plumbing must leave the default
// scenario bit-identical.
func TestDNAPaperPlatformGolden(t *testing.T) {
	problem, err := PaperProblem(2, offload.GenomeWorkload(dna.Human))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Tune(problem, nil, strategy.Options{Budget: 400, Seed: 3, Restarts: 2})
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("%s|%s|%s|%s|%s|%d|%d",
		problem.Platform.FormatSplit(res.Split),
		mfp64(res.Times[0]), mfp64(res.Energy[0]),
		res.Objective, mfp64(res.ObjectiveValue),
		res.Iterations, res.Chain)
	const golden = "host 42.5% (48T,none) | phi0 27.5% (240T,scatter) | phi1 30% (240T,balanced)|3fd334169782294c|404e127484dedaf3|time|3fd3717620c08412|800|0"
	if got != golden {
		t.Errorf("multi tuner diverged from the pre-scenario-layer golden:\n got  %s\n want %s", got, golden)
	}
}
