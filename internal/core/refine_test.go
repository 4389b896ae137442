package core

import (
	"fmt"
	"reflect"
	"testing"

	"hetopt/internal/dna"
	"hetopt/internal/machine"
	"hetopt/internal/ml"
	"hetopt/internal/offload"
	"hetopt/internal/space"
	"hetopt/internal/strategy"
)

// refineFixture builds a paper-space instance with trained models (a
// small boosting budget keeps the test fast).
func refineFixture(t *testing.T, g dna.Genome) *Instance {
	t.Helper()
	platform := offload.NewPlatform()
	models, err := Train(platform, PaperTrainingPlan(), TrainOptions{
		Boost:     ml.BoostOptions{Rounds: 60, LearningRate: 0.15, Tree: ml.TreeOptions{MaxDepth: 6, MinLeaf: 5}, Subsample: 0.9, Seed: 1},
		SplitSeed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := offload.GenomeWorkload(g)
	pred, err := NewPredictor(models, w, platform.Model())
	if err != nil {
		t.Fatal(err)
	}
	return &Instance{
		Schema:    space.PaperSchema(),
		Measurer:  NewMeasurer(platform, w),
		Predictor: pred,
	}
}

// measureInstance builds a measurement-only instance over the paper
// space (refinement never needs the predictor).
func measureInstance(g dna.Genome) *Instance {
	return &Instance{
		Schema:   space.PaperSchema(),
		Measurer: NewMeasurer(offload.NewPlatform(), offload.GenomeWorkload(g)),
	}
}

// seedConfig is a deliberately poor starting point.
func seedConfig() space.Config {
	return space.Config{
		HostThreads: 24, HostAffinity: machine.AffinityNone,
		DeviceThreads: 120, DeviceAffinity: machine.AffinityScatter,
		HostFraction: 30,
	}
}

// seedObjective is the measured objective (nil = time) of cfg, read
// back without charging the instance's effort counter.
func seedObjective(t *testing.T, inst *Instance, cfg space.Config, obj Objective) float64 {
	t.Helper()
	m, err := inst.Measurer.known(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if obj == nil {
		obj = TimeObjective{}
	}
	return objectiveValue(obj, m)
}

// improvement is the relative gain of a refinement over its seed.
func improvement(startE float64, res Result) float64 {
	return (startE - res.MeasuredObjective) / startE
}

// observedClimb is the default refinement climb with a move counter.
func observedClimb(schema *space.Schema, moves *int) strategy.Climb {
	c := climbFor(schema)
	c.OnMove = func(n int, _ float64) { *moves = n }
	return c
}

func TestRefineImprovesPoorSeed(t *testing.T) {
	inst := refineFixture(t, dna.Human)
	startE := seedObjective(t, inst, seedConfig(), nil)
	res, err := Refine(inst, seedConfig(), Options{Iterations: 120})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeasuredObjective > startE {
		t.Fatalf("refinement worsened the seed: %g -> %g", startE, res.MeasuredObjective)
	}
	if improvement(startE, res) <= 0.05 {
		t.Fatalf("expected a clear improvement from a poor seed, got %.1f%%", 100*improvement(startE, res))
	}
	if res.Experiments > 120 {
		t.Fatalf("budget exceeded: %d", res.Experiments)
	}
	if _, err := inst.Schema.Index(res.Config); err != nil {
		t.Fatalf("refined config left the space: %v", err)
	}
}

func TestRefineRespectsBudget(t *testing.T) {
	inst := refineFixture(t, dna.Cat)
	inst.Measurer.ResetCount()
	res, err := Refine(inst, seedConfig(), Options{Iterations: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Experiments > 10 {
		t.Fatalf("measurements = %d, budget 10", res.Experiments)
	}
	if inst.Measurer.Count() != res.Experiments {
		t.Fatalf("measurer saw %d, result reports %d", inst.Measurer.Count(), res.Experiments)
	}
}

func TestRefineStopsAtLocalOptimum(t *testing.T) {
	inst := refineFixture(t, dna.Dog)
	// Refine twice: the second run from the first result must make no
	// further progress (it is already a measured local optimum) as long
	// as the budget was not the binding constraint.
	first, err := Refine(inst, seedConfig(), Options{Iterations: 500})
	if err != nil {
		t.Fatal(err)
	}
	moves := 0
	second, err := Refine(inst, first.Config, Options{Iterations: 500, Strategy: observedClimb(inst.Schema, &moves)})
	if err != nil {
		t.Fatal(err)
	}
	if second.MeasuredObjective < first.MeasuredObjective-1e-12 {
		t.Fatalf("second refinement improved further (%g -> %g): first run was not at a local optimum",
			first.MeasuredObjective, second.MeasuredObjective)
	}
	if moves != 0 {
		t.Fatalf("second refinement took %d rounds, want 0", moves)
	}
}

func TestRefineRejectsForeignSeed(t *testing.T) {
	inst := refineFixture(t, dna.Human)
	bad := seedConfig()
	bad.HostThreads = 7 // not a schema level
	if _, err := Refine(inst, bad, Options{}); err == nil {
		t.Fatal("foreign seed should fail")
	}
}

func TestTuneAndRefinePipeline(t *testing.T) {
	inst := refineFixture(t, dna.Mouse)
	inst.Measurer.ResetCount()
	saml, refined, err := TuneAndRefine(inst,
		Options{Iterations: 500, Seed: 3},
		Options{Iterations: 60})
	if err != nil {
		t.Fatal(err)
	}
	if refined.MeasuredE() > saml.MeasuredE() {
		t.Fatalf("refinement worsened SAML's suggestion: %g -> %g", saml.MeasuredE(), refined.MeasuredE())
	}
	// Total measurements stay far below enumeration.
	if total := inst.Measurer.Count(); total > 70 {
		t.Fatalf("adaptive pipeline spent %d measurements", total)
	}
}

// TestRefineDNAPaperPlatformGolden pins the adaptive pipeline's
// DNA-on-paper-platform outcome to a golden value captured before the
// scenario-layer refactor: the scenario plumbing, and the move of the
// hill climb into the strategy layer, must leave it bit-identical. The
// seed and its measured objective are SAML's suggestion and SAML's
// measurement of it; 25 counts the seed's re-measurement and every
// re-measured previous incumbent, and the 2 moves come from the climb.
func TestRefineDNAPaperPlatformGolden(t *testing.T) {
	inst := refineFixture(t, dna.Human)
	moves := 0
	samlOpt := Options{Iterations: 300, Seed: 5}
	saml, refined, err := TuneAndRefine(inst, samlOpt,
		Options{Iterations: 80, Strategy: observedClimb(inst.Schema, &moves)})
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("%v|%s|%v|%s|%v|%s|%d|%d",
		saml.Config, fp64(saml.MeasuredE()),
		saml.Config, fp64(saml.MeasuredObjective),
		refined.Config, fp64(refined.MeasuredObjective),
		refined.Experiments, moves)
	const golden = "57.5/42.5 host(48T,scatter) device(240T,balanced)|3fd8867e1c6f80aa|57.5/42.5 host(48T,scatter) device(240T,balanced)|3fd8867e1c6f80aa|60/40 host(48T,compact) device(240T,balanced)|3fd77e3deaee3406|25|2"
	if got != golden {
		t.Errorf("adaptive pipeline diverged from the pre-scenario-layer golden:\n got  %s\n want %s", got, golden)
	}
	// The default (nil) strategy is the same climb.
	_, plain, err := TuneAndRefine(inst, samlOpt, Options{Iterations: 80})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, refined) {
		t.Fatalf("default refinement differs from the observed climb:\n got  %+v\n want %+v", plain, refined)
	}
}

// TestRefineUnderEnergyObjective checks that the objective threads
// through refinement: hill-climbing a balanced seed under the energy
// objective must reduce joules, and the reported objective values are
// energies, not makespans.
func TestRefineUnderEnergyObjective(t *testing.T) {
	inst := measureInstance(dna.Human)
	startE := seedObjective(t, inst, seedConfig(), EnergyObjective{})
	res, err := Refine(inst, seedConfig(), Options{
		Iterations: 200,
		Objective:  EnergyObjective{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeasuredObjective > startE {
		t.Fatalf("energy refinement worsened the seed: %g -> %g J", startE, res.MeasuredObjective)
	}
	if improvement(startE, res) <= 0 {
		t.Fatalf("expected an energy improvement, got %.1f%%", 100*improvement(startE, res))
	}
	// The seed is a mid-split: its total energy on this platform is far
	// above a makespan-valued number, so the objective units are visible.
	if startE < 10 {
		t.Fatalf("seed objective %g looks like a makespan, want joules", startE)
	}
	// The refined configuration should shift work toward the
	// energy-efficient host.
	if res.Config.HostFraction <= seedConfig().HostFraction {
		t.Errorf("energy refinement kept host fraction at %g%% (seed %g%%)",
			res.Config.HostFraction, seedConfig().HostFraction)
	}
}

// TestRefineObjectiveDeterministicAcrossParallelism extends the
// round-scan determinism contract to the weighted-sum objective.
func TestRefineObjectiveDeterministicAcrossParallelism(t *testing.T) {
	var want Result
	for i, p := range []int{1, 4, 8} {
		inst := measureInstance(dna.Human)
		res, err := Refine(inst, seedConfig(), Options{
			Iterations:  150,
			Parallelism: p,
			Objective:   WeightedSumObjective{Alpha: 0.5},
		})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = res
			continue
		}
		if !reflect.DeepEqual(want, res) {
			t.Fatalf("parallelism %d diverged:\nwant %+v\ngot  %+v", p, want, res)
		}
	}
}

// TestRefineParallelMatchesSequential: a round's neighbourhood is only
// scanned concurrently when the budget covers it whole, so the refined
// configuration and the measurements spent must be identical at every
// parallelism level. Budget 60 leaves the last round only partly
// covered.
func TestRefineParallelMatchesSequential(t *testing.T) {
	inst := refineFixture(t, dna.Human)
	seq, err := Refine(inst, seedConfig(), Options{Iterations: 60})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 4, 8} {
		par, err := Refine(inst, seedConfig(), Options{Iterations: 60, Parallelism: p})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("parallelism %d diverged:\nseq %+v\npar %+v", p, seq, par)
		}
	}
}

// TestRefineInjectedStrategy: an injected strategy refines from the
// seed (every worker starts there), never regresses below the seed, and
// is bit-identical at every parallelism level.
func TestRefineInjectedStrategy(t *testing.T) {
	inst := refineFixture(t, dna.Human)
	startE := seedObjective(t, inst, seedConfig(), nil)
	for _, tc := range []struct {
		name string
		s    strategy.Strategy
	}{
		{"anneal", strategy.DefaultAnneal()},
		{"tabu", strategy.Tabu{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(parallelism int) Result {
				res, err := Refine(inst, seedConfig(), Options{
					Iterations:  60,
					Strategy:    tc.s,
					Seed:        5,
					Restarts:    3,
					Parallelism: parallelism,
				})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			want := run(1)
			for _, p := range []int{2, 4, 8} {
				if got := run(p); !reflect.DeepEqual(want, got) {
					t.Fatalf("parallelism %d diverged:\nwant %+v\ngot  %+v", p, want, got)
				}
			}
			if want.MeasuredObjective > startE {
				t.Fatalf("strategy refinement regressed: %g > seed %g", want.MeasuredObjective, startE)
			}
			if want.Experiments <= 0 {
				t.Fatal("no measurements accounted")
			}
			// The workers share one memo: the physical count must stay
			// below the un-deduplicated worst case (3 workers x (60+1)
			// evaluations), since every worker evaluates the shared seed
			// state first.
			if worst := 3 * (60 + 1); want.Experiments >= worst {
				t.Fatalf("measurements = %d, want < %d (shared memo must deduplicate)", want.Experiments, worst)
			}
		})
	}
}

// TestRefineRejectsExhaustive: enumeration ignores evaluation budgets
// and the seed, so it must be refused instead of measuring the space.
func TestRefineRejectsExhaustive(t *testing.T) {
	inst := refineFixture(t, dna.Human)
	for name, s := range map[string]strategy.Strategy{
		"value":     strategy.Exhaustive{},
		"pointer":   &strategy.Exhaustive{},
		"portfolio": strategy.Portfolio{Members: []strategy.Strategy{strategy.DefaultAnneal(), strategy.Exhaustive{}}},
		"exact":     strategy.Exact{},
		"nested":    &strategy.Portfolio{Members: []strategy.Strategy{strategy.Portfolio{Members: []strategy.Strategy{&strategy.Exact{}}}}},
	} {
		if _, err := Refine(inst, seedConfig(), Options{Iterations: 20, Strategy: s}); err == nil {
			t.Fatalf("%s: enumerating refinement must be rejected", name)
		}
	}
}

// TestTuneAndRefineParallelOptions drives the whole adaptive pipeline
// with a parallel, multi-chain SAML stage and a parallel refinement
// stage; the outcome must match the sequential run of the same seeds.
func TestTuneAndRefineParallelOptions(t *testing.T) {
	inst := refineFixture(t, dna.Human)
	type outcome struct {
		samlE, refinedE float64
	}
	run := func(parallelism int) outcome {
		saml, refined, err := TuneAndRefine(inst,
			Options{Iterations: 300, Seed: 3, Restarts: 2, Parallelism: parallelism},
			Options{Iterations: 40, Parallelism: parallelism})
		if err != nil {
			t.Fatal(err)
		}
		return outcome{saml.MeasuredE(), refined.MeasuredE()}
	}
	want := run(1)
	if got := run(4); got != want {
		t.Fatalf("parallel pipeline diverged: %+v vs %+v", got, want)
	}
}
