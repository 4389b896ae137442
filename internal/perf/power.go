package perf

import "hetopt/internal/machine"

// This file is the power/energy side of the analytic model, the substrate
// of the bi-objective extension (see DESIGN.md, "Objectives and the energy
// model"). Each processing unit that receives work draws its static power
// for the whole heterogeneous run (it is engaged and cannot sleep while
// the other side still computes) plus a placement-aware dynamic increment
// while its own share is executing:
//
//	P_active = IdleW + CoreActiveW * coresUsed + ThreadActiveW * threads
//
// A unit with no work assigned is disengaged and consumes nothing, which
// models powering the card down (or never reserving it). Energy
// measurements carry the same deterministic, configuration-keyed noise
// discipline as timing measurements: re-measuring a configuration with
// the same trial reproduces the identical joule value.

// HostActivePowerW returns the modeled host power draw in watts while the
// host share executes with the given thread count and affinity. The value
// is deterministic (no measurement noise); it is what the predictor path
// composes with predicted times.
func (m *Model) HostActivePowerW(threads int, aff machine.Affinity) (float64, error) {
	coresUsed, err := m.hostCoresUsed(threads, aff)
	if err != nil {
		return 0, err
	}
	dyn := m.Cal.HostCoreActiveW*float64(coresUsed) + m.Cal.HostThreadActiveW*float64(threads)
	if aff == machine.AffinityNone && m.Cal.HostNonePowerFactor > 0 {
		dyn *= m.Cal.HostNonePowerFactor
	}
	return m.Cal.HostIdleW + dyn, nil
}

// DeviceActivePowerW returns the modeled device power draw in watts while
// the device share executes.
func (m *Model) DeviceActivePowerW(threads int, aff machine.Affinity) (float64, error) {
	coresUsed, err := m.devCoresUsed(threads, aff)
	if err != nil {
		return 0, err
	}
	dyn := m.Cal.DeviceCoreActiveW*float64(coresUsed) + m.Cal.DeviceThreadActiveW*float64(threads)
	return m.Cal.DeviceIdleW + dyn, nil
}

// Unit is the price of one processing unit's share, everything of its
// measurement that does not depend on the other units of the run: the
// execution time, the active and static power and the energy-noise
// factor. A run composes its units over their makespan (Energy), so a
// unit priced once serves every configuration that gives the unit the
// same assignment — the basis of the per-unit tables in
// internal/offload and internal/core.
type Unit struct {
	// Time is the unit's execution time in seconds, zero when it is
	// disengaged.
	Time float64
	// ActiveW is the power draw while the unit's share runs, IdleW the
	// static draw while it waits for the rest of the run.
	ActiveW, IdleW float64
	// Noise is the multiplicative energy-measurement noise; 1 prices
	// the noise-free modeled energy.
	Noise float64
	// Engaged reports whether the unit received work. A disengaged unit
	// consumes nothing.
	Engaged bool
}

// Energy returns the joules the unit consumes in a run of makespanSec:
// active power while busy, static power for the rest, times the noise
// factor; zero when the unit is disengaged. It is the one energy
// formula of the model — measured, predicted and tabled evaluations
// all price through it.
func (u Unit) Energy(makespanSec float64) float64 {
	if !u.Engaged {
		return 0
	}
	if makespanSec < u.Time {
		makespanSec = u.Time
	}
	return (u.ActiveW*u.Time + u.IdleW*(makespanSec-u.Time)) * u.Noise
}

// HostModeledUnit returns the noise-free engaged host unit busy for
// busySec: the prediction path prices learned times through it.
func (m *Model) HostModeledUnit(threads int, aff machine.Affinity, busySec float64) (Unit, error) {
	p, err := m.HostActivePowerW(threads, aff)
	if err != nil {
		return Unit{}, err
	}
	return Unit{Time: busySec, ActiveW: p, IdleW: m.Cal.HostIdleW, Noise: 1, Engaged: true}, nil
}

// DeviceModeledUnit is the device analogue of HostModeledUnit.
func (m *Model) DeviceModeledUnit(threads int, aff machine.Affinity, busySec float64) (Unit, error) {
	p, err := m.DeviceActivePowerW(threads, aff)
	if err != nil {
		return Unit{}, err
	}
	return Unit{Time: busySec, ActiveW: p, IdleW: m.Cal.DeviceIdleW, Noise: 1, Engaged: true}, nil
}

// HostUnit measures the host share a: its noisy time (HostTime) with
// the power and energy-noise draw that price its energy. A share with
// no work — zero, or the one-ulp negative remainder a split's rounding
// can leave — is the disengaged zero Unit. trial selects the noise
// draws exactly as HostTime does.
func (m *Model) HostUnit(a Assignment, w Traits, trial int) (Unit, error) {
	if !(a.SizeMB > 0) {
		return Unit{}, nil
	}
	t, err := m.HostTime(a, w, trial)
	if err != nil {
		return Unit{}, err
	}
	u, err := m.HostModeledUnit(a.Threads, a.Affinity, t)
	u.Noise = m.noise("host-energy", w.Name, a, trial, m.Cal.NoiseStdHostPower)
	return u, err
}

// DeviceUnit is the device analogue of HostUnit.
func (m *Model) DeviceUnit(a Assignment, w Traits, trial int) (Unit, error) {
	if !(a.SizeMB > 0) {
		return Unit{}, nil
	}
	t, err := m.DeviceTime(a, w, trial)
	if err != nil {
		return Unit{}, err
	}
	u, err := m.DeviceModeledUnit(a.Threads, a.Affinity, t)
	u.Noise = m.noise("device-energy", w.Name, a, trial, m.Cal.NoiseStdDevicePower)
	return u, err
}

// HostModeledEnergy returns the noise-free analytic joules an engaged
// host consumes when its share keeps it busy for busySec of a
// makespanSec-long run: active power while busy, static power for the
// rest.
func (m *Model) HostModeledEnergy(threads int, aff machine.Affinity, busySec, makespanSec float64) (float64, error) {
	u, err := m.HostModeledUnit(threads, aff, busySec)
	return u.Energy(makespanSec), err
}

// DeviceModeledEnergy is the device analogue of HostModeledEnergy.
func (m *Model) DeviceModeledEnergy(threads int, aff machine.Affinity, busySec, makespanSec float64) (float64, error) {
	u, err := m.DeviceModeledUnit(threads, aff, busySec)
	return u.Energy(makespanSec), err
}
