package strategy

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

// rugged adds a deceptive ripple to the bowl: many local minima, so
// uphill acceptance has work to do.
type rugged struct{ *bowl }

func (r rugged) Energy(state []int) (float64, error) {
	e, err := r.bowl.Energy(state)
	return e + 5*math.Abs(math.Sin(float64(state[0])*2.1)), err
}

func TestCoolingRateFor(t *testing.T) {
	rate, err := CoolingRateFor(1000, 10000, 1)
	if err != nil {
		t.Fatal(err)
	}
	// After exactly 1000 steps T should be ~1.
	temp := 10000.0
	for i := 0; i < 1000; i++ {
		temp *= 1 - rate
	}
	if temp < 0.99 || temp > 1.01 {
		t.Fatalf("temperature after 1000 steps = %g, want ~1", temp)
	}
}

func TestCoolingRateForErrors(t *testing.T) {
	if _, err := CoolingRateFor(0, 100, 1); err == nil {
		t.Error("zero iterations should fail")
	}
	if _, err := CoolingRateFor(10, 0, 1); err == nil {
		t.Error("zero initial temp should fail")
	}
	if _, err := CoolingRateFor(10, 100, 0); err == nil {
		t.Error("zero stop temp should fail")
	}
	if _, err := CoolingRateFor(10, 1, 100); err == nil {
		t.Error("stop >= initial should fail")
	}
}

// TestAnnealAcceptsWorseMovesAtHighTemp checks Equation 4: uphill moves
// are accepted, but only as a minority of all acceptances.
func TestAnnealAcceptsWorseMovesAtHighTemp(t *testing.T) {
	p := rugged{&bowl{levels: []int{50, 50}, target: []int{25, 25}}}
	accepted, worse := 0, 0
	a := Anneal{InitialTemp: 1000, StopTemp: 1, OnStep: func(s Step) {
		if s.Accepted {
			accepted++
		}
		if s.Worse {
			worse++
		}
	}}
	if _, err := a.Minimize(p, Options{Budget: 2000, Seed: 4}); err != nil {
		t.Fatal(err)
	}
	if worse == 0 {
		t.Fatal("SA never accepted a worse solution; the acceptance function is broken")
	}
	if worse >= accepted {
		t.Fatalf("worse acceptances (%d) should be a minority of %d", worse, accepted)
	}
}

// TestAnnealStopsAtStopTemp checks Equation 3 and the stop criterion:
// the schedule starts at InitialTemp, never evaluates below StopTemp,
// and the cooling rate makes it reach StopTemp as the budget runs out.
func TestAnnealStopsAtStopTemp(t *testing.T) {
	const budget = 44
	var steps []Step
	a := Anneal{InitialTemp: 100, StopTemp: 1, OnStep: func(s Step) { steps = append(steps, s) }}
	if _, err := a.Minimize(newBowl(), Options{Budget: budget, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if n := len(steps); n < budget-1 || n > budget {
		t.Fatalf("%d steps, want about %d", n, budget)
	}
	if steps[0].Temp != 100 {
		t.Fatalf("first temperature = %g, want 100", steps[0].Temp)
	}
	for _, s := range steps {
		if s.Temp < 1 {
			t.Fatalf("step %d evaluated at T = %g, below the stop temperature", s.Iter, s.Temp)
		}
	}
	rate, err := CoolingRateFor(budget, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if final := steps[len(steps)-1].Temp * (1 - rate); final > 1+1e-9 {
		t.Fatalf("final temperature = %g, want the stop temperature 1 reached", final)
	}
}

// recordAnneal runs a budget-100 anneal over newBowl with restarts
// chains and returns what OnStep observed.
func recordAnneal(t *testing.T, restarts int) []Step {
	t.Helper()
	var steps []Step
	a := Anneal{InitialTemp: 50, StopTemp: 0.01, OnStep: func(s Step) { steps = append(steps, s) }}
	if _, err := a.Minimize(newBowl(), Options{Budget: 100, Seed: 2, Restarts: restarts, Parallelism: 2}); err != nil {
		t.Fatal(err)
	}
	return steps
}

// TestAnnealOnStepObserves: the observer sees every iteration and the
// best energy never rises.
func TestAnnealOnStepObserves(t *testing.T) {
	steps := recordAnneal(t, 1)
	if len(steps) != 100 {
		t.Fatalf("observer saw %d steps, want 100", len(steps))
	}
	for i := 1; i < len(steps); i++ {
		if steps[i].Best > steps[i-1].Best {
			t.Fatalf("best energy increased at iter %d: %g -> %g", i, steps[i-1].Best, steps[i].Best)
		}
	}
}

// TestAnnealMultiOnStepOnlyChainZero: in a multi-chain run the observer
// sees chain 0 and nothing else, step for step as in the single run.
func TestAnnealMultiOnStepOnlyChainZero(t *testing.T) {
	if single, multi := recordAnneal(t, 1), recordAnneal(t, 4); !reflect.DeepEqual(single, multi) {
		t.Fatalf("chain 0 of a 4-chain run diverged from the single-chain run (%d vs %d steps)", len(multi), len(single))
	}
}

func TestAnnealOptionValidation(t *testing.T) {
	if _, err := (Anneal{InitialTemp: -5}).Minimize(newBowl(), Options{}); err == nil {
		t.Error("negative initial temperature should fail")
	}
	if _, err := (Anneal{InitialTemp: 5, StopTemp: 10}).Minimize(newBowl(), Options{}); err == nil {
		t.Error("stop temperature above the initial one should fail")
	}
	if _, err := DefaultAnneal().Minimize(&bowl{}, Options{}); err == nil {
		t.Error("zero-dimensional problem should fail")
	}
}

// Property: the reported best energy is never above the energy of any
// candidate the observer saw, and the returned best state has the
// reported energy.
func TestBestIsTrulyBestProperty(t *testing.T) {
	f := func(seed int64, itersRaw uint8) bool {
		iters := int(itersRaw)%300 + 10
		p := &bowl{levels: []int{16, 16}, target: []int{9, 4}}
		minSeen := math.Inf(1)
		a := Anneal{InitialTemp: 10000, StopTemp: 1, OnStep: func(s Step) {
			minSeen = math.Min(minSeen, s.Candidate)
		}}
		res, err := a.Minimize(p, Options{Budget: iters, Seed: seed})
		if err != nil || res.BestEnergy > minSeen {
			return false
		}
		e, _ := p.Energy(res.Best)
		return e == res.BestEnergy
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
