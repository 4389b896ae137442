package multi

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"hetopt/internal/dna"
	"hetopt/internal/machine"
	"hetopt/internal/offload"
	"hetopt/internal/perf"
	"hetopt/internal/space"
	"hetopt/internal/strategy"
)

// quietProblem is PaperProblem on a noiseless paper model: WithCards
// copies the model, so every card is quiet too.
func quietProblem(t testing.TB, nPhis int) *Problem {
	t.Helper()
	m := perf.NewPaperModel()
	m.Cal.NoiseStdHost = 0
	m.Cal.NoiseStdDevice = 0
	platform, err := offload.NewPlatformWithModel(m).WithCards(nPhis)
	if err != nil {
		t.Fatal(err)
	}
	return &Problem{Platform: platform, Schema: space.PaperSchema(), Workload: offload.GenomeWorkload(dna.Human)}
}

// tune runs the default annealer.
func tune(t testing.TB, p *Problem, opt strategy.Options) Result {
	t.Helper()
	res, err := Tune(p, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// split40 is host 40% (48T,scatter) plus the given card shares at
// 240T balanced.
func split40(cards ...float64) offload.Split {
	s := offload.Split{Host: offload.Share{Threads: 48, Affinity: machine.AffinityScatter, FractionPct: 40}}
	for _, f := range cards {
		s.Cards = append(s.Cards, offload.Share{Threads: 240, Affinity: machine.AffinityBalanced, FractionPct: f})
	}
	return s
}

func TestNewPlatformValidation(t *testing.T) {
	for _, n := range []int{0, -1} {
		if _, err := offload.NewPlatform().WithCards(n); err == nil {
			t.Errorf("%d cards should fail", n)
		}
		if _, err := PaperProblem(n, offload.GenomeWorkload(dna.Human)); err == nil {
			t.Errorf("paper problem with %d Phis should fail", n)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	good := split40(60)
	if err := good.Validate(1); err != nil {
		t.Fatal(err)
	}
	bad := split40(60)
	bad.Host.FractionPct = 50 // sums to 110
	if err := bad.Validate(1); err == nil {
		t.Error("bad simplex should fail")
	}
	if err := good.Validate(2); err == nil {
		t.Error("wrong device count should fail")
	}
	neg := split40(110)
	neg.Host.FractionPct = -10
	if err := neg.Validate(1); err == nil {
		t.Error("negative fraction should fail")
	}
}

func TestMeasureTwoPhis(t *testing.T) {
	p := quietProblem(t, 2)
	m, err := p.Platform.MeasureSplit(p.Workload, split40(30, 30), 0)
	if err != nil {
		t.Fatal(err)
	}
	times := m.Times
	if times[0] <= 0 || times[1] <= 0 || times[2] <= 0 {
		t.Fatalf("times = %+v", times)
	}
	// Identical noiseless cards with identical shares take identical time.
	if times[1] != times[2] {
		t.Fatalf("identical quiet cards diverge: %g vs %g", times[1], times[2])
	}
	if m.E() < times[0] || m.E() < times[1] {
		t.Fatal("E must be the maximum")
	}
}

func TestPerCardNoiseIndependent(t *testing.T) {
	p, err := PaperProblem(2, offload.GenomeWorkload(dna.Human))
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.Platform.MeasureSplit(p.Workload, split40(30, 30), 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Times[1] == m.Times[2] {
		t.Fatal("noisy identical cards should observe independent noise")
	}
}

func TestTuneTwoPhisBeatsOne(t *testing.T) {
	resOne := tune(t, quietProblem(t, 1), strategy.Options{Budget: 2500, Seed: 1})
	resTwo := tune(t, quietProblem(t, 2), strategy.Options{Budget: 2500, Seed: 1})
	if resTwo.E() >= resOne.E() {
		t.Fatalf("two Phis (%g) should beat one (%g)", resTwo.E(), resOne.E())
	}
	// The second card must actually receive work.
	work := 0.0
	for _, d := range resTwo.Split.Cards {
		if d.FractionPct > 0 {
			work++
		}
	}
	if work < 2 {
		t.Fatalf("tuner left a card idle: %v", resTwo.Split)
	}
}

func TestTuneConfigOnSimplex(t *testing.T) {
	res := tune(t, quietProblem(t, 3), strategy.Options{Budget: 1500, Seed: 7})
	if err := res.Split.Validate(3); err != nil {
		t.Fatalf("tuned config invalid: %v (%v)", err, res.Split)
	}
	if res.Iterations != 1500 {
		t.Fatalf("iterations = %d", res.Iterations)
	}
	if !strings.Contains(res.Split.String(), "host") {
		t.Error("config string malformed")
	}
}

func TestProblemValidate(t *testing.T) {
	p := quietProblem(t, 1)
	p.Schema = nil
	if err := p.Validate(); err == nil {
		t.Error("missing schema should fail")
	}
	p = quietProblem(t, 1)
	p.Workload.SizeMB = 0
	if err := p.Validate(); err == nil {
		t.Error("empty workload should fail")
	}
	if _, err := Tune(&Problem{}, nil, strategy.Options{Budget: 10, Seed: 1}); err == nil {
		t.Error("empty problem should fail")
	}
}

// Property: Initial and Neighbor preserve the simplex invariant (unit
// counts are non-negative and sum to fractionUnits) and keep indices in
// range.
func TestSimplexInvariantProperty(t *testing.T) {
	p := quietProblem(t, 2)
	f := func(seed int64, moves uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		state := make([]int, p.Dim())
		p.Initial(state, rng)
		for m := 0; m < int(moves); m++ {
			p.Neighbor(state, state, rng)
		}
		base := p.unitBase()
		sum := 0
		for i := base; i < len(state); i++ {
			if state[i] < 0 {
				return false
			}
			sum += state[i]
		}
		if sum != fractionUnits {
			return false
		}
		s, err := p.Decode(state)
		if err != nil {
			return false
		}
		return s.Validate(2) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeLengthChecked(t *testing.T) {
	p := quietProblem(t, 1)
	if _, err := p.Decode([]int{0}); err == nil {
		t.Error("short state should fail")
	}
	// An out-of-range level index fails instead of panicking.
	state := make([]int, p.Dim())
	state[0] = 99
	if _, err := p.Decode(state); err == nil {
		t.Error("out-of-range thread index should fail")
	}
}
