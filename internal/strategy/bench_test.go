package strategy

import (
	"fmt"
	"runtime"
	"testing"
)

// BenchmarkStrategyMinimize runs every strategy on the synthetic bowl
// under an equal budget — the microbenchmark behind the strategy
// comparison table.
func BenchmarkStrategyMinimize(b *testing.B) {
	b.ReportAllocs()
	for _, s := range allStrategies() {
		b.Run(s.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.Minimize(newBowl(), Options{Budget: 500, Seed: 1, Restarts: 2}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPortfolioRace measures the racing portfolio sequential vs
// parallel: the result is bit-identical, only wall-clock changes.
func BenchmarkPortfolioRace(b *testing.B) {
	b.ReportAllocs()
	for _, p := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := DefaultPortfolio().Race(newBowl(), Options{Budget: 500, Seed: 1, Restarts: 2, Parallelism: p}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchBowl is a 41^5 bowl: large enough that no searcher converges
// within the benchmark budgets.
func benchBowl() *bowl {
	return &bowl{levels: []int{41, 41, 41, 41, 41}, target: []int{20, 5, 33, 11, 40}}
}

func BenchmarkMinimize1000Iters(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DefaultAnneal().Minimize(benchBowl(), Options{Budget: 1000, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMinimizeMultiChains runs 8 chains of 1000 iterations at
// increasing parallelism; the result is identical at every level, only
// wall-clock changes.
func BenchmarkMinimizeMultiChains(b *testing.B) {
	b.ReportAllocs()
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				opt := Options{Budget: 1000, Seed: int64(i), Restarts: 8, Parallelism: p}
				if _, err := DefaultAnneal().Minimize(benchBowl(), opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMinimizePaperSchedule anneals over the paper's literal
// schedule: T0 = 10^4 down to T < 1 in the 3066 steps that a cooling
// rate of 0.003 takes.
func BenchmarkMinimizePaperSchedule(b *testing.B) {
	b.ReportAllocs()
	sa := Anneal{InitialTemp: 10000, StopTemp: 1}
	for i := 0; i < b.N; i++ {
		if _, err := sa.Minimize(benchBowl(), Options{Budget: 3066, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHeuristics runs each single-worker heuristic for 1000
// evaluations.
func BenchmarkHeuristics(b *testing.B) {
	for _, s := range heuristics() {
		b.Run(s.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.Minimize(benchBowl(), Options{Budget: 1000, Seed: int64(i)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
