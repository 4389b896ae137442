package strategy

import (
	"fmt"
	"math"
	"testing"
)

// TestResultPins pins the Result of every parseable strategy, with one
// and with four workers, on the bowl problem. The values were captured
// before the searchers moved into this package; any change means a
// refactor altered an RNG stream, a tie-break or the effort accounting.
// The budget is small so that no searcher has converged and the best
// state still reflects its stream.
func TestResultPins(t *testing.T) {
	golden := map[string]string{
		"anneal/1":     "[2 3 9]|4039000000000000|26|0|1",
		"anneal/4":     "[5 3 9]|4010000000000000|104|2|4",
		"exhaustive/1": "[7 3 9]|0000000000000000|1728|0|1",
		"exhaustive/4": "[7 3 9]|0000000000000000|1728|0|1",
		"exact/1":      "[7 3 9]|0000000000000000|1729|0|1",
		"exact/4":      "[7 3 9]|0000000000000000|1729|0|1",
		"genetic/1":    "[6 3 11]|4014000000000000|25|0|1",
		"genetic/4":    "[8 3 9]|3ff0000000000000|100|2|4",
		"tabu/1":       "[8 3 9]|3ff0000000000000|25|0|1",
		"tabu/4":       "[8 3 9]|3ff0000000000000|100|0|4",
		"local/1":      "[7 6 9]|4022000000000000|25|0|1",
		"local/4":      "[7 5 10]|4014000000000000|100|2|4",
		"random/1":     "[6 3 11]|4014000000000000|25|0|1",
		"random/4":     "[8 3 9]|3ff0000000000000|100|2|4",
		"portfolio/1":  "[7 3 9]|0000000000000000|1855|5|6",
		"portfolio/4":  "[7 3 9]|0000000000000000|2233|5|21",
	}
	for _, name := range Names() {
		s, err := Parse(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, restarts := range []int{1, 4} {
			res, err := s.Minimize(newBowl(), Options{Budget: 25, Seed: 7, Restarts: restarts})
			if err != nil {
				t.Fatalf("%s/%d: %v", name, restarts, err)
			}
			key := fmt.Sprintf("%s/%d", name, restarts)
			got := fmt.Sprintf("%v|%016x|%d|%d|%d", res.Best, math.Float64bits(res.BestEnergy),
				res.Evaluations, res.Worker, res.Workers)
			if got != golden[key] {
				t.Errorf("%s diverged from the pin:\n got  %s\n want %s", key, got, golden[key])
			}
		}
	}
}
