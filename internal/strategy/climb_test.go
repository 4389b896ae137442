package strategy

import (
	"math/rand"
	"reflect"
	"testing"
)

// startAt is a bowl whose every worker starts at a fixed state.
type startAt struct {
	*bowl
	start []int
}

func (s startAt) Initial(dst []int, _ *rand.Rand) { copy(dst, s.start) }

// ordered3 marks all three bowl dimensions as ordered.
var ordered3 = []bool{true, true, true}

// TestClimbOnePointSpace: a space without moves stops after evaluating
// its start state.
func TestClimbOnePointSpace(t *testing.T) {
	b := &bowl{levels: []int{1, 1}, target: []int{0, 0}}
	res, err := Climb{}.Minimize(b, Options{Budget: 50})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations != 1 || b.evals.Load() != 1 {
		t.Fatalf("evaluations = %d (problem saw %d), want 1", res.Evaluations, b.evals.Load())
	}
}

// TestClimbBudgetCountsStart: a budget of one evaluates the start state
// and nothing else.
func TestClimbBudgetCountsStart(t *testing.T) {
	p := startAt{newBowl(), []int{0, 0, 0}}
	res, err := Climb{Ordered: ordered3}.Minimize(p, Options{Budget: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations != 1 || p.evals.Load() != 1 {
		t.Fatalf("evaluations = %d (problem saw %d), want 1", res.Evaluations, p.evals.Load())
	}
	if !reflect.DeepEqual(res.Best, []int{0, 0, 0}) {
		t.Fatalf("best = %v, want the start state", res.Best)
	}
}

// TestClimbTieTakesEarliestMove: from (6,2,9) the moves 6->7 and 2->3
// both reach energy 1; the scan meets dimension 0 first, so one round
// (start + 4 neighbours, the budget) must take it.
func TestClimbTieTakesEarliestMove(t *testing.T) {
	p := startAt{newBowl(), []int{6, 2, 9}}
	moves := 0
	c := Climb{Ordered: ordered3, OnMove: func(n int, e float64) {
		moves = n
		if e != 1 {
			t.Errorf("move %d energy = %g, want 1", n, e)
		}
	}}
	res, err := c.Minimize(p, Options{Budget: 1 + 6})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Best, []int{7, 2, 9}) || moves != 1 {
		t.Fatalf("best = %v after %d moves, want [7 2 9] after 1", res.Best, moves)
	}
}

// TestClimbNeighbourhood: ordered dimensions step one level, the others
// try every other level, so an ordered climb walks to the bowl's
// minimum level by level and an unordered one jumps straight there.
func TestClimbNeighbourhood(t *testing.T) {
	for _, tc := range []struct {
		name    string
		ordered []bool
		moves   int
	}{
		{"ordered", ordered3, 7 + 3 + 9},
		{"unordered", nil, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			moves := 0
			c := Climb{Ordered: tc.ordered, OnMove: func(n int, _ float64) { moves = n }}
			res, err := c.Minimize(startAt{newBowl(), []int{0, 0, 0}}, Options{Budget: 10000})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Best, []int{7, 3, 9}) || res.BestEnergy != 0 || moves != tc.moves {
				t.Fatalf("best = %v (E %g) after %d moves, want [7 3 9] (E 0) after %d", res.Best, res.BestEnergy, moves, tc.moves)
			}
		})
	}
	if _, err := (Climb{Ordered: []bool{true}}).Minimize(newBowl(), Options{}); err == nil {
		t.Fatal("ordered flags of the wrong length should fail")
	}
	if _, err := (Climb{}).Minimize(coupled{newBowl()}, Options{}); err == nil {
		t.Fatal("climb needs a product space")
	}
}

// TestClimbDeterministicAcrossParallelism: a round is scanned in
// parallel only when the remaining budget covers it, so the Result and
// the evaluations paid are the same at every Parallelism, including
// budgets whose last round is covered only in part.
func TestClimbDeterministicAcrossParallelism(t *testing.T) {
	for _, budget := range []int{5, 13, 30, 200} {
		for _, ordered := range [][]bool{ordered3, nil} {
			var want Result
			var wantEvals int64
			for i, par := range []int{1, 2, 8} {
				b := newBowl()
				res, err := Climb{Ordered: ordered}.Minimize(b, Options{Budget: budget, Seed: 3, Parallelism: par})
				if err != nil {
					t.Fatal(err)
				}
				if res.Evaluations > budget || int64(res.Evaluations) != b.evals.Load() {
					t.Fatalf("budget %d: evaluations %d, problem saw %d", budget, res.Evaluations, b.evals.Load())
				}
				if i == 0 {
					want, wantEvals = res, b.evals.Load()
					continue
				}
				if !reflect.DeepEqual(want, res) || b.evals.Load() != wantEvals {
					t.Fatalf("budget %d ordered %v parallelism %d diverged:\nwant %+v\ngot  %+v", budget, ordered != nil, par, want, res)
				}
			}
		}
	}
}

// TestClimbStopsAtError: the first Energy error ends the climb.
func TestClimbStopsAtError(t *testing.T) {
	for _, par := range []int{1, 8} {
		f := &failing{bowl: newBowl(), after: 3}
		if _, err := (Climb{Ordered: ordered3}).Minimize(f, Options{Budget: 100, Parallelism: par}); err == nil {
			t.Fatalf("parallelism %d: evaluator failure not propagated", par)
		}
	}
}
