package multi

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"hetopt/internal/core"
	"hetopt/internal/machine"
	"hetopt/internal/offload"
	"hetopt/internal/strategy"
)

// TestFormatConfigNamesDevices is the regression test for the rendering
// bug: Split.String has no access to the platform's card names, so
// Platform.FormatSplit must label every card entry.
func TestFormatConfigNamesDevices(t *testing.T) {
	p := quietProblem(t, 2)
	s := split40(30, 30)
	s.Cards[1].Threads, s.Cards[1].Affinity = 120, machine.AffinityCompact
	got := p.Platform.FormatSplit(s)
	want := "host 40% (48T,scatter) | phi0 30% (240T,balanced) | phi1 30% (120T,compact)"
	if got != want {
		t.Fatalf("FormatSplit = %q, want %q", got, want)
	}
	// The bare String stays platform-agnostic and must not invent names.
	if str := s.String(); strings.Contains(str, "phi") {
		t.Fatalf("Split.String %q must not contain card names", str)
	}
	// Extra card entries beyond the platform's count degrade to an
	// index label instead of panicking.
	s.Cards = append(s.Cards, offload.Share{Threads: 60, Affinity: machine.AffinityScatter, FractionPct: 0})
	if str := p.Platform.FormatSplit(s); !strings.Contains(str, "dev2") {
		t.Fatalf("overflow card entry not labeled: %q", str)
	}
}

// TestValidateToleranceScalesWithDevices is the regression test for the
// fixed simplex epsilon: with K=8 cards and fractions derived from
// float arithmetic (ninths), the accumulated rounding error must still
// validate.
func TestValidateToleranceScalesWithDevices(t *testing.T) {
	const k = 8
	// Nine equal shares of 100/9: the float sum drifts from 100 by a few
	// ULPs, more than a single-unit epsilon allows.
	share := 100.0 / 9.0
	s := offload.Split{Host: offload.Share{Threads: 48, Affinity: machine.AffinityScatter, FractionPct: share}}
	for i := 0; i < k; i++ {
		s.Cards = append(s.Cards, offload.Share{
			Threads: 240, Affinity: machine.AffinityBalanced, FractionPct: share,
		})
	}
	sum := s.Host.FractionPct
	for _, d := range s.Cards {
		sum += d.FractionPct
	}
	if sum == 100 {
		t.Skip("float sum landed exactly on 100; scenario not reached")
	}
	if err := s.Validate(k); err != nil {
		t.Fatalf("K=%d non-grid fractions rejected: %v", k, err)
	}
	// Real drift must still be caught.
	s.Cards[0].FractionPct += 0.5
	if err := s.Validate(k); err == nil {
		t.Fatal("half-percent drift must still fail validation")
	}
}

func TestMeasureFullEnergy(t *testing.T) {
	p := quietProblem(t, 2)
	s := split40(60, 0)
	m, err := p.Platform.MeasureSplit(p.Workload, s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Energy[0] <= 0 || m.Energy[1] <= 0 {
		t.Fatalf("engaged units must consume energy: %+v", m.Energy)
	}
	if m.Energy[2] != 0 || m.Times[2] != 0 {
		t.Fatalf("card with no work took %g s and consumed %g J", m.Times[2], m.Energy[2])
	}
	if got, want := m.Joules(), m.Energy[0]+m.Energy[1]; got != want {
		t.Fatalf("total %g != sum of engaged units %g", got, want)
	}
	if got, want := m.E(), math.Max(m.Times[0], m.Times[1]); got != want {
		t.Fatalf("E %g != max of engaged units %g", got, want)
	}
	// The measurement is a pure function of (workload, split, trial).
	again, err := p.Platform.MeasureSplit(p.Workload, s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, again) {
		t.Fatalf("repeated MeasureSplit diverged: %+v vs %+v", m, again)
	}
}

// TestTuneEnergyObjective checks that the energy objective steers
// multi-device tuning toward a lower-energy distribution than time
// tuning, deterministically at every parallelism level.
func TestTuneEnergyObjective(t *testing.T) {
	timeP := quietProblem(t, 2)
	timeRes := tune(t, timeP, strategy.Options{Budget: 1500, Seed: 7, Restarts: 2})
	energyP := quietProblem(t, 2)
	energyP.Objective = core.EnergyObjective{}
	var want Result
	for i, par := range []int{1, 4, 8} {
		res := tune(t, energyP, strategy.Options{Budget: 1500, Seed: 7, Restarts: 2, Parallelism: par})
		if i == 0 {
			want = res
			continue
		}
		if !reflect.DeepEqual(want, res) {
			t.Fatalf("parallelism %d diverged:\nwant %+v\ngot  %+v", par, want, res)
		}
	}
	if want.Objective != "energy" {
		t.Fatalf("result records objective %q, want energy", want.Objective)
	}
	if want.Joules() >= timeRes.Joules() {
		t.Fatalf("energy tuning consumed %g J, not less than time tuning's %g J",
			want.Joules(), timeRes.Joules())
	}
	fmt.Printf("time-opt %s (%.1f J) vs energy-opt %s (%.1f J)\n",
		timeP.Platform.FormatSplit(timeRes.Split), timeRes.Joules(),
		energyP.Platform.FormatSplit(want.Split), want.Joules())
}
