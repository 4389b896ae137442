package space

import (
	"strings"
	"testing"

	"hetopt/internal/machine"
)

func TestPaperSpecSize(t *testing.T) {
	sc, err := NewSchema(PaperSpec())
	if err != nil {
		t.Fatal(err)
	}
	// Section IV-C: "19926 experiments were required when we used
	// enumeration".
	if got := sc.Size(); got != 19926 {
		t.Fatalf("paper space size = %d, want 19926", got)
	}
}

func TestTable1SpecSize(t *testing.T) {
	sc, err := NewSchema(Table1Spec())
	if err != nil {
		t.Fatal(err)
	}
	// 7 host threads x 3 x 9 x 3 x 101 fractions.
	if got := sc.Size(); got != 7*3*9*3*101 {
		t.Fatalf("table 1 space size = %d", got)
	}
}

func TestSchemaConfigRoundTrip(t *testing.T) {
	sc := PaperSchema()
	err := sc.Space().ForEach(func(idx []int) error {
		cfg, err := sc.Config(idx)
		if err != nil {
			return err
		}
		back, err := sc.Index(cfg)
		if err != nil {
			return err
		}
		located, ok := sc.Locate(cfg)
		for i := range idx {
			if back[i] != idx[i] || !ok || located[i] != idx[i] {
				t.Fatalf("round trip failed at %v -> %+v -> %v (Locate %v, %v)", idx, cfg, back, located, ok)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSchemaFractionComplement(t *testing.T) {
	sc := PaperSchema()
	idx, err := sc.Index(Config{
		HostThreads: 24, HostAffinity: machine.AffinityScatter,
		DeviceThreads: 120, DeviceAffinity: machine.AffinityBalanced,
		HostFraction: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := sc.Config(idx)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.DeviceFraction() != 40 {
		t.Fatalf("device fraction = %g, want 40", cfg.DeviceFraction())
	}
}

func TestSchemaIndexRejectsForeignValues(t *testing.T) {
	sc := PaperSchema()
	bad := []Config{
		{HostThreads: 7, HostAffinity: machine.AffinityScatter, DeviceThreads: 60, DeviceAffinity: machine.AffinityBalanced, HostFraction: 50},
		{HostThreads: 24, HostAffinity: machine.AffinityBalanced, DeviceThreads: 60, DeviceAffinity: machine.AffinityBalanced, HostFraction: 50},
		{HostThreads: 24, HostAffinity: machine.AffinityScatter, DeviceThreads: 61, DeviceAffinity: machine.AffinityBalanced, HostFraction: 50},
		{HostThreads: 24, HostAffinity: machine.AffinityScatter, DeviceThreads: 60, DeviceAffinity: machine.AffinityNone, HostFraction: 50},
		{HostThreads: 24, HostAffinity: machine.AffinityScatter, DeviceThreads: 60, DeviceAffinity: machine.AffinityBalanced, HostFraction: 51},
	}
	for i, cfg := range bad {
		if _, err := sc.Index(cfg); err == nil {
			t.Errorf("config %d (%v) should be rejected", i, cfg)
		}
		if _, ok := sc.Locate(cfg); ok {
			t.Errorf("config %d (%v) located", i, cfg)
		}
	}
}

func TestSchemaSpecValidation(t *testing.T) {
	spec := PaperSpec()
	spec.Fractions = nil
	if _, err := NewSchema(spec); err == nil {
		t.Error("empty fractions should fail")
	}
	spec = PaperSpec()
	spec.Fractions = []float64{-1}
	if _, err := NewSchema(spec); err == nil {
		t.Error("negative fraction should fail")
	}
	spec = PaperSpec()
	spec.Fractions = []float64{101}
	if _, err := NewSchema(spec); err == nil {
		t.Error("fraction > 100 should fail")
	}
}

func TestConfigString(t *testing.T) {
	c := Config{HostThreads: 24, HostAffinity: machine.AffinityScatter, DeviceThreads: 120, DeviceAffinity: machine.AffinityBalanced, HostFraction: 60}
	s := c.String()
	for _, want := range []string{"60/40", "24T", "scatter", "120T", "balanced"} {
		if !strings.Contains(s, want) {
			t.Errorf("Config.String() = %q missing %q", s, want)
		}
	}
}

func TestSchemaAccessorsCopy(t *testing.T) {
	sc := PaperSchema()
	ht := sc.HostThreadValues()
	ht[0] = 999
	if sc.HostThreadValues()[0] == 999 {
		t.Error("HostThreadValues must return a copy")
	}
	fr := sc.FractionValues()
	if len(fr) != 41 {
		t.Errorf("fraction grid = %d values, want 41", len(fr))
	}
	if got := len(sc.DeviceThreadValues()); got != 9 {
		t.Errorf("device thread levels = %d, want 9", got)
	}
	if got := len(sc.HostAffinityValues()); got != 3 {
		t.Errorf("host affinities = %d, want 3", got)
	}
	if got := len(sc.DeviceAffinityValues()); got != 3 {
		t.Errorf("device affinities = %d, want 3", got)
	}
}
