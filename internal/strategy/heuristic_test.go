package strategy

import (
	"reflect"
	"testing"
	"testing/quick"
)

// deceptive hides a narrow optimum at the origin, away from the bowl's
// broad valley.
type deceptive struct{ *bowl }

func (d deceptive) Energy(state []int) (float64, error) {
	e, err := d.bowl.Energy(state)
	if state[0] == 0 && state[1] == 0 {
		return -1, err
	}
	return e, err
}

func heuristics() []Strategy { return []Strategy{Random{}, Local{}, Tabu{}, Genetic{}} }

func TestBudgetRespected(t *testing.T) {
	for _, s := range heuristics() {
		b := newBowl()
		res, err := s.Minimize(b, Options{Budget: 137, Seed: 2})
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if res.Evaluations > 137 {
			t.Errorf("%s: spent %d evaluations for budget 137", s.Name(), res.Evaluations)
		}
		if got := int(b.evals.Load()); got != res.Evaluations {
			t.Errorf("%s: reported %d evaluations but problem saw %d", s.Name(), res.Evaluations, got)
		}
	}
}

func TestHeuristicValidation(t *testing.T) {
	if _, err := (Random{}).Minimize(&bowl{}, Options{}); err == nil {
		t.Error("zero-dimensional problem should fail")
	}
	if _, err := (Local{}).Minimize(&bowl{levels: []int{0}, target: []int{1}}, Options{}); err == nil {
		t.Error("zero levels should fail")
	}
	for _, g := range []Genetic{{Population: 1}, {MutationRate: 2}, {Elite: 50}} {
		if _, err := g.Minimize(newBowl(), Options{Budget: 10}); err == nil {
			t.Errorf("%+v should fail", g)
		}
	}
}

// TestTabuEscapesLocalMinimum: tabu's uphill moves find the deceptive
// problem's hidden optimum, where pure descent can stall in the bowl.
func TestTabuEscapesLocalMinimum(t *testing.T) {
	p := deceptive{&bowl{levels: []int{12, 12}, target: []int{7, 3}}}
	res, err := Tabu{}.Minimize(p, Options{Budget: 4000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestEnergy != -1 {
		t.Fatalf("tabu best = %g, want -1 (hidden optimum)", res.BestEnergy)
	}
}

// Property: every heuristic returns an in-bounds state whose energy
// equals its reported best.
func TestSearchersSoundProperty(t *testing.T) {
	f := func(seed int64, which uint8, budgetRaw uint8) bool {
		budget := int(budgetRaw)%400 + 50
		p := newBowl()
		res, err := heuristics()[which%4].Minimize(p, Options{Budget: budget, Seed: seed})
		if err != nil {
			return false
		}
		for i, v := range res.Best {
			if v < 0 || v >= p.Levels(i) {
				return false
			}
		}
		e, _ := p.Energy(res.Best)
		return e == res.BestEnergy
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: guided heuristics beat random search on average over seeds.
func TestGuidedBeatsRandomOnAverage(t *testing.T) {
	const n = 20
	sums := make([]float64, len(heuristics()))
	for seed := int64(0); seed < n; seed++ {
		for i, s := range heuristics() {
			res, err := s.Minimize(newBowl(), Options{Budget: 400, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			sums[i] += res.BestEnergy
		}
	}
	for i, s := range heuristics()[1:] {
		if sums[i+1] > sums[0] {
			t.Errorf("%s should beat random: mean %g vs %g", s.Name(), sums[i+1]/n, sums[0]/n)
		}
	}
}

// TestWorkersStartAtInitial: every worker of the annealer, the
// heuristics and the climb evaluates the problem's Initial state first,
// so a refinement seeded there can never end worse than its seed.
func TestWorkersStartAtInitial(t *testing.T) {
	for _, s := range []Strategy{DefaultAnneal(), Genetic{}, Tabu{}, Local{}, Random{}, Climb{}} {
		for _, restarts := range []int{1, 3} {
			p := startAt{newBowl(), []int{7, 3, 9}}
			res, err := s.Minimize(p, Options{Budget: 1, Seed: 4, Restarts: restarts})
			if err != nil {
				t.Fatal(err)
			}
			if res.BestEnergy != 0 || !reflect.DeepEqual(res.Best, []int{7, 3, 9}) {
				t.Errorf("%s/%d: best %v (E %g), want the Initial state [7 3 9]", s.Name(), restarts, res.Best, res.BestEnergy)
			}
		}
	}
}
