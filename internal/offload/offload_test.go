package offload

import (
	"math"
	"testing"
	"testing/quick"

	"hetopt/internal/automata"
	"hetopt/internal/dna"
	"hetopt/internal/machine"
	"hetopt/internal/space"
)

func quietPlatform() *Platform {
	p := NewPlatform()
	p.Model().Cal.NoiseStdHost = 0
	p.Model().Cal.NoiseStdDevice = 0
	return p
}

func balancedConfig(fraction float64) space.Config {
	return space.Config{
		HostThreads: 48, HostAffinity: machine.AffinityScatter,
		DeviceThreads: 240, DeviceAffinity: machine.AffinityBalanced,
		HostFraction: fraction,
	}
}

func TestTimesE(t *testing.T) {
	if got := (Times{Host: 2, Device: 3}).E(); got != 3 {
		t.Fatalf("E = %g, want 3 (Equation 2)", got)
	}
	if got := (Times{Host: 5, Device: 3}).E(); got != 5 {
		t.Fatalf("E = %g, want 5", got)
	}
}

func TestGenomeWorkload(t *testing.T) {
	w := GenomeWorkload(dna.Human)
	if w.Name != "human" || w.SizeMB != dna.Human.SizeMB || w.Complexity != 1 {
		t.Fatalf("workload = %+v", w)
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWorkloadValidate(t *testing.T) {
	if err := (Workload{Name: "", SizeMB: 1}).Validate(); err == nil {
		t.Error("empty name should fail")
	}
	if err := (Workload{Name: "x", SizeMB: 0}).Validate(); err == nil {
		t.Error("zero size should fail")
	}
	if err := (Workload{Name: "x", SizeMB: math.NaN()}).Validate(); err == nil {
		t.Error("NaN size should fail")
	}
}

func TestWorkloadScaled(t *testing.T) {
	w := GenomeWorkload(dna.Human).Scaled(190)
	if w.SizeMB != 190 || w.Name != "human" {
		t.Fatalf("scaled workload = %+v", w)
	}
}

func TestMeasureSplitsWork(t *testing.T) {
	p := quietPlatform()
	w := GenomeWorkload(dna.Human)
	full, err := p.Measure(w, balancedConfig(100), 0)
	if err != nil {
		t.Fatal(err)
	}
	if full.Device != 0 {
		t.Fatalf("CPU-only run should have zero device time, got %g", full.Device)
	}
	devOnly, err := p.Measure(w, balancedConfig(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if devOnly.Host != 0 {
		t.Fatalf("device-only run should have zero host time, got %g", devOnly.Host)
	}
	split, err := p.Measure(w, balancedConfig(60), 0)
	if err != nil {
		t.Fatal(err)
	}
	if split.Host <= 0 || split.Device <= 0 {
		t.Fatalf("split run times = %+v", split)
	}
	if split.Host >= full.Host {
		t.Fatalf("60%% host share (%g) should beat 100%% (%g)", split.Host, full.Host)
	}
}

// badFractions are shares outside [0,100]; NaN fails every ordered
// comparison, so only a negated range check rejects it.
var badFractions = []float64{-1, 101, math.NaN(), math.Inf(1), math.Inf(-1), -0.1, 100.1}

func TestMeasureRejectsBadFraction(t *testing.T) {
	p := quietPlatform()
	w := GenomeWorkload(dna.Human)
	d, err := automata.CompileMotifs(dna.DefaultMotifs())
	if err != nil {
		t.Fatal(err)
	}
	gen := dna.NewGenerator(dna.Human, 5)
	for _, f := range badFractions {
		cfg := balancedConfig(f)
		if m, err := p.MeasureFull(w, cfg, 0); err == nil {
			t.Errorf("MeasureFull accepted host fraction %g: %+v", f, m)
		}
		if _, err := p.Measure(w, cfg, 0); err == nil {
			t.Errorf("Measure accepted host fraction %g", f)
		}
		if _, err := p.Execute(w, cfg, d, gen, 1000, 0); err == nil {
			t.Errorf("Execute accepted host fraction %g", f)
		}
	}
}

// TestMeasureAllOnHostRoundingSize: for about one size in fifteen,
// SizeMB*100/100 rounds one ulp above SizeMB, so an all-on-host split
// leaves the device a tiny negative share. That share is no work: the
// device stays idle, and measuring the split (which every enumeration
// does) must not fail with "negative device size", on the direct path
// or through a unit table.
func TestMeasureAllOnHostRoundingSize(t *testing.T) {
	w := GenomeWorkload(dna.Human).Scaled(1692.534)
	if _, devMB, err := w.Shares(100); err != nil || devMB >= 0 {
		t.Fatalf("Shares(100) left the device %g (%v); pick a size that rounds above itself", devMB, err)
	}
	p := quietPlatform()
	m, err := p.MeasureFull(w, balancedConfig(100), 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Times.Device != 0 || m.Energy.Device != 0 || m.Times.Host <= 0 {
		t.Fatalf("all-on-host measurement %+v: want an idle device", m)
	}
	schema := space.PaperSchema()
	tab, err := p.UnitTable(w, 0, schema)
	if err != nil {
		t.Fatal(err)
	}
	idx, ok := schema.Locate(balancedConfig(100))
	if !ok {
		t.Fatal("configuration not on the paper schema")
	}
	if got, err := tab.Measure(idx[:]); err != nil || got != m {
		t.Fatalf("tabled all-on-host measurement %+v (%v), want %+v", got, err, m)
	}
}

func TestMeasureRejectsBadConfig(t *testing.T) {
	p := quietPlatform()
	w := GenomeWorkload(dna.Human)
	cfg := balancedConfig(50)
	cfg.HostAffinity = machine.AffinityBalanced // invalid on host
	if _, err := p.Measure(w, cfg, 0); err == nil {
		t.Error("invalid host affinity should fail")
	}
	cfg = balancedConfig(50)
	cfg.DeviceThreads = 0
	if _, err := p.Measure(w, cfg, 0); err == nil {
		t.Error("zero device threads with device work should fail")
	}
}

func TestMeasureObjectiveShape(t *testing.T) {
	// The heterogeneous optimum must beat both host-only and device-only
	// for a paper-scale workload (Section IV-D).
	p := quietPlatform()
	w := GenomeWorkload(dna.Human)
	hostOnly, _ := p.Measure(w, balancedConfig(100), 0)
	devOnly, _ := p.Measure(w, balancedConfig(0), 0)
	best := math.Inf(1)
	for f := 2.5; f < 100; f += 2.5 {
		ti, err := p.Measure(w, balancedConfig(f), 0)
		if err != nil {
			t.Fatal(err)
		}
		if ti.E() < best {
			best = ti.E()
		}
	}
	if best >= hostOnly.E() || best >= devOnly.E() {
		t.Fatalf("best split %g should beat host-only %g and device-only %g", best, hostOnly.E(), devOnly.E())
	}
}

func TestMeasureTrialNoise(t *testing.T) {
	p := NewPlatform() // noise enabled
	w := GenomeWorkload(dna.Cat)
	a, err := p.Measure(w, balancedConfig(60), 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Measure(w, balancedConfig(60), 0)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("same trial must reproduce the same measurement")
	}
	c, err := p.Measure(w, balancedConfig(60), 1)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Fatal("different trials should differ")
	}
}

func TestExecuteCountsMatchSequential(t *testing.T) {
	p := quietPlatform()
	d, err := automata.CompileMotifs(dna.DefaultMotifs())
	if err != nil {
		t.Fatal(err)
	}
	gen, err := dna.NewGenerator(dna.Human, 5).WithPlantedMotif("GAATTC", 300)
	if err != nil {
		t.Fatal(err)
	}
	total := int64(1 << 20)
	text := gen.Generate(int(total))
	want := d.CountMatches(text)

	for _, fraction := range []float64{0, 2.5, 37.5, 60, 100} {
		rep, err := p.Execute(GenomeWorkload(dna.Human), balancedConfig(fraction), d, gen, total, 0)
		if err != nil {
			t.Fatalf("fraction %g: %v", fraction, err)
		}
		if rep.Matches != want {
			t.Fatalf("fraction %g: matches = %d, want %d (boundary handling broken)", fraction, rep.Matches, want)
		}
		if rep.HostBytes+rep.DeviceBytes != total {
			t.Fatalf("fraction %g: byte split %d+%d != %d", fraction, rep.HostBytes, rep.DeviceBytes, total)
		}
		if rep.Times.E() <= 0 {
			t.Fatalf("fraction %g: non-positive modeled time", fraction)
		}
	}
}

func TestExecuteValidation(t *testing.T) {
	p := quietPlatform()
	d, err := automata.CompileMotifs(dna.DefaultMotifs())
	if err != nil {
		t.Fatal(err)
	}
	gen := dna.NewGenerator(dna.Human, 5)
	if _, err := p.Execute(Workload{}, balancedConfig(50), d, gen, 100, 0); err == nil {
		t.Error("invalid workload should fail")
	}
	if _, err := p.Execute(GenomeWorkload(dna.Human), balancedConfig(50), d, gen, -1, 0); err == nil {
		t.Error("negative total should fail")
	}
	if _, err := p.Execute(GenomeWorkload(dna.Human), balancedConfig(200), d, gen, 100, 0); err == nil {
		t.Error("bad fraction should fail")
	}
}

func TestPlatformAccessors(t *testing.T) {
	p := NewPlatform()
	if p.Host().TotalThreads() != 48 || p.Device().TotalThreads() != 240 {
		t.Fatalf("platform processors wrong: %s / %s", p.Host().Name, p.Device().Name)
	}
	if p.Model() == nil {
		t.Fatal("model accessor returned nil")
	}
}

// Property: Execute conserves matches for any fraction on the grid.
func TestExecuteConservationProperty(t *testing.T) {
	p := quietPlatform()
	d, err := automata.CompileMotifs([]dna.Motif{{Name: "tata", Pattern: "TATAAA"}, {Name: "ecoRI", Pattern: "GAATTC"}})
	if err != nil {
		t.Fatal(err)
	}
	gen := dna.NewGenerator(dna.Dog, 23)
	total := int64(1 << 17)
	want := d.CountMatches(gen.Generate(int(total)))
	f := func(fRaw uint8, hostW, devW uint8) bool {
		fraction := float64(fRaw%41) * 2.5
		cfg := balancedConfig(fraction)
		cfg.HostThreads = []int{2, 6, 12, 24, 36, 48}[hostW%6]
		cfg.DeviceThreads = []int{2, 4, 8, 16, 30, 60, 120, 180, 240}[devW%9]
		rep, err := p.Execute(GenomeWorkload(dna.Dog), cfg, d, gen, total, 0)
		if err != nil {
			return false
		}
		return rep.Matches == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestExecuteUnboundedContextDFA(t *testing.T) {
	// A repetition pattern has no bounded context: the engine must fall
	// back to the enumerative strategy on both shares and still conserve
	// matches across the distribution boundary.
	p := quietPlatform()
	d, err := automata.CompilePattern("GA(AT)+TC")
	if err != nil {
		t.Fatal(err)
	}
	if d.ContextLen != 0 {
		t.Fatalf("pattern should be unbounded, ContextLen=%d", d.ContextLen)
	}
	gen := dna.NewGenerator(dna.Mouse, 77)
	total := int64(1 << 20)
	want := d.CountMatches(gen.Generate(int(total)))
	rep, err := p.Execute(GenomeWorkload(dna.Mouse), balancedConfig(50), d, gen, total, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Matches != want {
		t.Fatalf("unbounded-context split counted %d, sequential %d", rep.Matches, want)
	}
}

func TestExecuteZeroTotal(t *testing.T) {
	p := quietPlatform()
	d, err := automata.CompileMotifs(dna.DefaultMotifs())
	if err != nil {
		t.Fatal(err)
	}
	gen := dna.NewGenerator(dna.Human, 1)
	rep, err := p.Execute(GenomeWorkload(dna.Human), balancedConfig(60), d, gen, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Matches != 0 || rep.HostBytes != 0 || rep.DeviceBytes != 0 {
		t.Fatalf("zero-length execution produced %+v", rep)
	}
}

func TestMeasureScaledWorkloadKeepsIdentity(t *testing.T) {
	// Scaling a workload must keep its name (noise identity) while
	// changing only the size.
	p := quietPlatform()
	w := GenomeWorkload(dna.Cat).Scaled(123)
	ti, err := p.Measure(w, balancedConfig(100), 0)
	if err != nil {
		t.Fatal(err)
	}
	w2 := Workload{Name: "cat", SizeMB: 123, Complexity: dna.Cat.Complexity}
	ti2, err := p.Measure(w2, balancedConfig(100), 0)
	if err != nil {
		t.Fatal(err)
	}
	if ti != ti2 {
		t.Fatalf("scaled workload measured differently: %+v vs %+v", ti, ti2)
	}
}
