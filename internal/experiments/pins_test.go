package experiments

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"hetopt/internal/dna"
	"hetopt/internal/offload"
)

// TestRenderPins pins the SHA-256 of the text the search-driven
// experiments render at test scale. The digests were captured before
// the searchers moved into internal/strategy: the heuristic comparison
// and the SA trace cover the genetic, tabu, local and random streams and
// the annealing observer, which the core goldens do not reach. The
// multi-device tables were pinned before the multi-device platform
// folded into offload: "multi-phi" is the paper suite ("phi" cards),
// "multi-dev" the gpu-like scenario ("dev" cards).
func TestRenderPins(t *testing.T) {
	s := testSuite(t)
	human := offload.GenomeWorkload(dna.Human)
	render := map[string]func() (string, error){
		"heuristics": func() (string, error) {
			rows, emE, err := s.HeuristicComparison(human, 500)
			return RenderHeuristicComparison(rows, emE, human, 500, s.repeats()), err
		},
		"strategies": func() (string, error) {
			res, err := s.StrategyComparison(human, 150)
			if err != nil {
				return "", err
			}
			return RenderStrategyComparison(res, human, 150, s.repeats()), nil
		},
		"satrace": func() (string, error) {
			return s.RenderSATrace(offload.GenomeWorkload(dna.Cat), 300)
		},
		"cooling": func() (string, error) {
			return s.AblationCoolingRate(human, 300)
		},
		"multi-phi": func() (string, error) {
			rows, err := s.ExtMultiDevice(human, 3, 300)
			return RenderMultiDevice(rows, human), err
		},
		"multi-dev": func() (string, error) {
			g, err := NewScenarioSuite("gpu-like", "spmv")
			if err != nil {
				return "", err
			}
			g.Repeats = 2
			rows, err := g.ExtMultiDevice(g.reference(), 3, 300)
			return RenderMultiDevice(rows, g.reference()), err
		},
		"adaptive": func() (string, error) {
			rows, err := s.ExtAdaptive(300, 40)
			return RenderAdaptive(rows, 300, 40), err
		},
	}
	golden := map[string]string{
		"heuristics": "9c88a049d0d3f082431681404b66f9b4e43cbc29625f9cb3f4ce8972a114d658",
		"strategies": "71b3495461ca391f8c264b50af3e9ba0158c7aa420be4aad1a50e88a8f8d0320",
		"satrace":    "d81805a60d2c9e651bf8483ed00b746bf15205829eaac701b5cd4ddb2ccb7af3",
		"cooling":    "446896437854530498787730d892547a9e95946c5473bccdb7243fdb5535df2f",
		"multi-phi":  "1dae7cfa830b0f94ff73b1ec864a6ce48b62497a5b2059020fd9b6a0b0346e68",
		"multi-dev":  "4342b1f1688a869d4c26a384bcef1d0eda8d3b7d009e5454b7e5c2949ef96e94",
		"adaptive":   "4132821ed6cdcb8e97d4227e958f1e38494bf2ea5e0739006e6c09b3955e5c29",
	}
	for name, run := range render {
		text, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(text))); got != golden[name] {
			t.Errorf("%s rendering diverged from the pin: got sha256 %s, want %s", name, got, golden[name])
		}
	}
}
