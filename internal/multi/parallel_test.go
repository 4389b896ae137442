package multi

import (
	"reflect"
	"strings"
	"testing"

	"hetopt/internal/strategy"
)

// TestTuneParallelSingleChainMatchesTune: a nil strategy is the
// annealing preset {InitialTemp 5, StopTemp 5e-4}, bit for bit.
func TestTuneParallelSingleChainMatchesTune(t *testing.T) {
	a := tune(t, quietProblem(t, 2), strategy.Options{Budget: 800, Seed: 3})
	b, err := Tune(quietProblem(t, 2), strategy.Anneal{InitialTemp: 5, StopTemp: 5e-4}, strategy.Options{Budget: 800, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("nil strategy diverged from the annealing preset:\n%+v\n%+v", a, b)
	}
}

func TestTuneParallelDeterministicAcrossParallelism(t *testing.T) {
	run := func(parallelism int) Result {
		return tune(t, quietProblem(t, 2), strategy.Options{
			Budget:      500,
			Seed:        9,
			Restarts:    4,
			Parallelism: parallelism,
		})
	}
	want := run(1)
	for _, p := range []int{4, 8} {
		if got := run(p); !reflect.DeepEqual(want, got) {
			t.Fatalf("parallelism %d diverged:\nwant %+v\ngot  %+v", p, want, got)
		}
	}
	if want.Iterations != 4*500 {
		t.Fatalf("iterations = %d, want %d", want.Iterations, 4*500)
	}
}

// TestTuneParallelInjectedStrategy: the multi-device simplex couples
// its fraction coordinates, so product-space strategies must be
// rejected with a clear error, while Initial/Neighbor-driven ones (a
// portfolio of annealing schedules) tune it deterministically at every
// parallelism level.
func TestTuneParallelInjectedStrategy(t *testing.T) {
	_, err := Tune(quietProblem(t, 2), strategy.Genetic{}, strategy.Options{Budget: 50})
	if err == nil || !strings.Contains(err.Error(), "product-space") {
		t.Fatalf("genetic on the simplex should fail naming the requirement, got %v", err)
	}

	pf := strategy.Portfolio{Members: []strategy.Strategy{
		strategy.Anneal{InitialTemp: 5, StopTemp: 5e-4},
		strategy.Anneal{InitialTemp: 50, StopTemp: 5e-3},
	}}
	run := func(parallelism int) Result {
		res, err := Tune(quietProblem(t, 2), pf, strategy.Options{
			Budget:      300,
			Seed:        4,
			Restarts:    2,
			Parallelism: parallelism,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(1)
	for _, p := range []int{4, 8} {
		if got := run(p); !reflect.DeepEqual(want, got) {
			t.Fatalf("parallelism %d diverged:\nwant %+v\ngot  %+v", p, want, got)
		}
	}
	if err := want.Split.Validate(2); err != nil {
		t.Fatalf("winning config invalid: %v", err)
	}
}

func TestTuneParallelChainsNeverWorse(t *testing.T) {
	single := tune(t, quietProblem(t, 2), strategy.Options{Budget: 600, Seed: 2})
	many := tune(t, quietProblem(t, 2), strategy.Options{Budget: 600, Seed: 2, Restarts: 4})
	if many.E() > single.E() {
		t.Fatalf("4 chains (%g) worse than chain 0 alone (%g)", many.E(), single.E())
	}
	if err := many.Split.Validate(2); err != nil {
		t.Fatalf("winning config invalid: %v", err)
	}
}
