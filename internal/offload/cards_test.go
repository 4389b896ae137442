package offload

import (
	"testing"

	"hetopt/internal/dna"
	"hetopt/internal/machine"
	"hetopt/internal/perf"
)

func TestMeasureSplitRejectsBadFraction(t *testing.T) {
	p, err := quietPlatform().WithCards(2)
	if err != nil {
		t.Fatal(err)
	}
	w := GenomeWorkload(dna.Human)
	share := func(f float64) Share {
		return Share{Threads: 240, Affinity: machine.AffinityBalanced, FractionPct: f}
	}
	for _, f := range badFractions {
		for _, s := range []Split{
			{Host: Share{Threads: 48, Affinity: machine.AffinityScatter, FractionPct: f}, Cards: []Share{share(50), share(50)}},
			{Host: Share{Threads: 48, Affinity: machine.AffinityScatter, FractionPct: 50}, Cards: []Share{share(f), share(50)}},
		} {
			if err := s.Validate(2); err == nil {
				t.Errorf("Validate accepted %v", s)
			}
			if m, err := p.MeasureSplit(w, s, 0); err == nil {
				t.Errorf("MeasureSplit accepted %v: %+v", s, m)
			}
		}
	}
}

// TestMeasureFullZeroAllocs: the shared per-unit routine runs on stack
// arrays, so one measurement of the tracked configuration allocates
// nothing.
func TestMeasureFullZeroAllocs(t *testing.T) {
	p := NewPlatform()
	w := GenomeWorkload(dna.Human)
	cfg := balancedConfig(60)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := p.MeasureFull(w, cfg, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("MeasureFull allocates %g times per run, want 0", allocs)
	}
}

func TestWithCardsNamesAndNoise(t *testing.T) {
	p := NewPlatform()
	if p.NumCards() != 1 || p.CardName(0) != "dev0" {
		t.Fatalf("paper platform: %d cards, card 0 labeled %q", p.NumCards(), p.CardName(0))
	}
	phis, err := p.WithCards(3)
	if err != nil {
		t.Fatal(err)
	}
	if phis.NumCards() != 3 || phis.CardName(0) != "phi0" || phis.CardName(2) != "phi2" {
		t.Fatalf("Phi cards named %q..%q", phis.CardName(0), phis.CardName(2))
	}
	if phis.Model() != p.Model() {
		t.Error("WithCards must keep the host model")
	}
	m := perf.NewPaperModel()
	gpu := *m.Device
	gpu.Name = "generic accelerator"
	m.Device = &gpu
	devs, err := NewPlatformWithModel(m).WithCards(2)
	if err != nil {
		t.Fatal(err)
	}
	if devs.CardName(1) != "dev1" {
		t.Fatalf("non-Phi card named %q, want dev1", devs.CardName(1))
	}
	// A host/device configuration splits over exactly one card.
	if _, err := phis.MeasureFull(GenomeWorkload(dna.Human), balancedConfig(50), 0); err == nil {
		t.Error("MeasureFull on a three-card platform should fail")
	}
	// One card keeps WithCards' decorrelated noise: its named key and
	// seed differ from the paper platform's unnamed card.
	one, err := p.WithCards(1)
	if err != nil {
		t.Fatal(err)
	}
	w := Workload{Name: "human", SizeMB: 2000}
	s := Split{
		Host:  Share{Threads: 48, Affinity: machine.AffinityScatter, FractionPct: 60},
		Cards: []Share{{Threads: 240, Affinity: machine.AffinityBalanced, FractionPct: 40}},
	}
	a, err := p.MeasureSplit(w, s, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := one.MeasureSplit(w, s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Times[0] != b.Times[0] || a.Times[1] == b.Times[1] {
		t.Fatalf("host must match and the named card must observe its own noise: %v vs %v", a.Times, b.Times)
	}
}

// TestMeasureSplitMatchesMeasureFull: on the paper platform both paths
// run the same per-unit routine with the same noise keys, so a one-card
// split with exactly representable shares measures bit-identically.
func TestMeasureSplitMatchesMeasureFull(t *testing.T) {
	p := NewPlatform()
	w := Workload{Name: "human", SizeMB: 2000}
	for _, f := range []float64{0, 60, 100} {
		full, err := p.MeasureFull(w, balancedConfig(f), 0)
		if err != nil {
			t.Fatal(err)
		}
		s := Split{
			Host:  Share{Threads: 48, Affinity: machine.AffinityScatter, FractionPct: f},
			Cards: []Share{{Threads: 240, Affinity: machine.AffinityBalanced, FractionPct: 100 - f}},
		}
		got, err := p.MeasureSplit(w, s, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got.Times[0] != full.Times.Host || got.Times[1] != full.Times.Device ||
			got.Energy[0] != full.Energy.Host || got.Energy[1] != full.Energy.Device ||
			got.E() != full.E() || got.Joules() != full.Joules() {
			t.Fatalf("fraction %g: MeasureSplit %+v differs from MeasureFull %+v", f, got, full)
		}
	}
}
