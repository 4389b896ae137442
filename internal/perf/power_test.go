package perf

import (
	"math"
	"testing"

	"hetopt/internal/machine"
)

func TestActivePowerMonotoneInThreads(t *testing.T) {
	m := NewPaperModel()
	prev := 0.0
	for _, threads := range []int{2, 6, 12, 24, 36, 48} {
		p, err := m.HostActivePowerW(threads, machine.AffinityScatter)
		if err != nil {
			t.Fatal(err)
		}
		if p <= prev {
			t.Fatalf("host power %g W at %d threads not above %g W", p, threads, prev)
		}
		if p <= m.Cal.HostIdleW {
			t.Fatalf("active power %g W must exceed idle %g W", p, m.Cal.HostIdleW)
		}
		prev = p
	}
	prev = 0.0
	for _, threads := range []int{2, 30, 120, 240} {
		p, err := m.DeviceActivePowerW(threads, machine.AffinityBalanced)
		if err != nil {
			t.Fatal(err)
		}
		if p <= prev {
			t.Fatalf("device power %g W at %d threads not above %g W", p, threads, prev)
		}
		prev = p
	}
}

func TestActivePowerPlausibleRange(t *testing.T) {
	// Full load must land near the hardware's sustained draw: below the
	// combined TDP, above the idle floor.
	m := NewPaperModel()
	host, err := m.HostActivePowerW(48, machine.AffinityScatter)
	if err != nil {
		t.Fatal(err)
	}
	if host < 150 || host > 230 {
		t.Errorf("host full-load power %g W outside the 2x115 W TDP envelope", host)
	}
	dev, err := m.DeviceActivePowerW(240, machine.AffinityBalanced)
	if err != nil {
		t.Fatal(err)
	}
	if dev < 200 || dev > 300 {
		t.Errorf("device full-load power %g W outside the 300 W TDP envelope", dev)
	}
}

func TestAffinityNonePowerPenalty(t *testing.T) {
	m := NewPaperModel()
	scatter, err := m.HostActivePowerW(24, machine.AffinityScatter)
	if err != nil {
		t.Fatal(err)
	}
	none, err := m.HostActivePowerW(24, machine.AffinityNone)
	if err != nil {
		t.Fatal(err)
	}
	if none <= scatter {
		t.Errorf("OS scheduling (%g W) should draw more than scatter (%g W)", none, scatter)
	}
}

func TestEnergyDeterministicAndKeyed(t *testing.T) {
	m := NewPaperModel()
	a := Assignment{SizeMB: 1000, Threads: 48, Affinity: machine.AffinityScatter}
	w := Traits{Name: "human"}
	energy := func(trial int) (float64, Unit) {
		t.Helper()
		u, err := m.HostUnit(a, w, trial)
		if err != nil {
			t.Fatal(err)
		}
		return u.Energy(u.Time + 0.5), u
	}
	e1, u := energy(0)
	if e2, _ := energy(0); e1 != e2 {
		t.Fatalf("same key produced %g and %g J", e1, e2)
	}
	if e3, _ := energy(1); e3 == e1 {
		t.Error("different trials should observe different noise draws")
	}
	// The noise is a small relative perturbation around the analytic
	// value P_active*busy + P_idle*(makespan-busy).
	p, err := m.HostActivePowerW(a.Threads, a.Affinity)
	if err != nil {
		t.Fatal(err)
	}
	want := p*u.Time + m.Cal.HostIdleW*0.5
	if math.Abs(e1-want)/want > 5*m.Cal.NoiseStdHostPower {
		t.Fatalf("energy %g J too far from analytic %g J", e1, want)
	}
}

func TestEnergyDisengagedUnit(t *testing.T) {
	m := NewPaperModel()
	w := Traits{Name: "human"}
	u, err := m.HostUnit(Assignment{SizeMB: 0, Threads: 48}, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e := u.Energy(3.0); e != 0 || u.Engaged {
		t.Errorf("a unit with no work must consume nothing, got %g J", e)
	}
	u, err = m.DeviceUnit(Assignment{SizeMB: 0, Threads: 240}, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e := u.Energy(3.0); e != 0 || u.Engaged {
		t.Errorf("a disengaged device must consume nothing, got %g J", e)
	}
}

func TestEnergyRejectsInvalidPlacement(t *testing.T) {
	m := NewPaperModel()
	w := Traits{Name: "human"}
	if _, err := m.HostUnit(Assignment{SizeMB: 10, Threads: -1, Affinity: machine.AffinityScatter}, w, 0); err == nil {
		t.Error("negative thread count should fail")
	}
	if _, err := m.DeviceUnit(Assignment{SizeMB: 10, Threads: -1, Affinity: machine.AffinityBalanced}, w, 0); err == nil {
		t.Error("negative device thread count should fail")
	}
	if _, err := m.HostModeledUnit(-1, machine.AffinityScatter, 1); err == nil {
		t.Error("negative thread count should fail the power model")
	}
	if _, err := m.DeviceModeledUnit(-1, machine.AffinityBalanced, 1); err == nil {
		t.Error("negative device thread count should fail the power model")
	}
}
