// Package offload is the heterogeneous offload runtime of the
// reproduction. A Platform is a host plus K accelerator cards; the
// paper's is one Xeon Phi. A system configuration (space.Config) splits
// a divisible workload between the host CPUs and the one card according
// to the configured fraction; on a K-card platform a Split spreads it
// over the host and every card. Both report per-unit execution times
// with the paper's objective E = max over units (Equation 2) together
// with per-unit energy from the calibrated power model, through one
// shared per-unit measurement. The offloaded shares run concurrently
// with the host share, mirroring the paper's use of the Intel offload
// programming model with overlapped host/device execution.
//
// Two paths are provided:
//
//   - Measure: the "testbed" path. Execution time comes from the
//     calibrated perf.Model (see DESIGN.md on hardware substitution), so
//     paper-scale multi-gigabyte runs are evaluated in microseconds.
//
//   - Execute: the real-computation path. The DNA matching engine
//     (internal/parem) actually processes the input bytes for both
//     shares — the device share on a simulated executor that runs the
//     identical code on local CPU threads — and the report combines real
//     match counts with modeled times.
package offload

import (
	"fmt"
	"math"
	"strings"

	"hetopt/internal/automata"
	"hetopt/internal/dna"
	"hetopt/internal/machine"
	"hetopt/internal/parem"
	"hetopt/internal/perf"
	"hetopt/internal/space"
)

// Times holds the per-side execution times of one run, in seconds.
type Times struct {
	Host, Device float64
}

// E is the paper's objective function (Equation 2):
// E = max(T_host, T_device).
func (t Times) E() float64 {
	return math.Max(t.Host, t.Device)
}

// Energy holds the per-side energy consumption of one run, in joules.
// A side that received no work is disengaged and consumes nothing; an
// engaged side draws static power for the whole run (it cannot sleep
// while the other side still computes) plus dynamic power while busy.
type Energy struct {
	Host, Device float64
}

// Total is the energy objective: joules consumed across all engaged
// processing units.
func (e Energy) Total() float64 {
	return e.Host + e.Device
}

// Measurement is the complete outcome of evaluating one configuration:
// per-side times and per-side energy, composed from a single experiment
// so that caching by configuration remains exact for every objective.
type Measurement struct {
	Times  Times
	Energy Energy
}

// E is the time objective, max(T_host, T_device).
func (m Measurement) E() float64 { return m.Times.E() }

// Joules is the energy objective, the total across engaged units.
func (m Measurement) Joules() float64 { return m.Energy.Total() }

// Workload identifies a divisible input. The fields beyond Name, SizeMB
// and Complexity are the scenario layer's workload-family traits; their
// zero values reproduce the paper's DNA workload behaviour exactly.
type Workload struct {
	// Name keys measurement noise and reports.
	Name string
	// SizeMB is the total input size in megabytes.
	SizeMB float64
	// Complexity is the matching-cost multiplier (1.0 = human genome).
	Complexity float64
	// BytesPerByte, when positive, is the workload's memory traffic per
	// input byte (overrides the platform calibration's default of 1.0) —
	// the arithmetic-intensity knob of scenario workload families.
	BytesPerByte float64
	// HostRateFactor and DeviceRateFactor, when positive, scale the
	// per-core streaming rates relative to the reference workload (1.0),
	// modeling how well the kernel maps onto each side.
	HostRateFactor, DeviceRateFactor float64
}

// GenomeWorkload converts a dna.Genome into a Workload.
func GenomeWorkload(g dna.Genome) Workload {
	return Workload{Name: g.Name, SizeMB: g.SizeMB, Complexity: g.Complexity}
}

// Scaled returns a copy of the workload with the size replaced; used to
// evaluate motivational scenarios such as the paper's 190 MB experiment.
func (w Workload) Scaled(sizeMB float64) Workload {
	w.SizeMB = sizeMB
	return w
}

// Traits converts the workload to the perf model's view; consumers that
// price throughput directly (e.g. the dynamic-scheduling baseline) must
// pass it so workload families keep their compute/bandwidth signature.
func (w Workload) Traits() perf.Traits {
	return perf.Traits{
		Name:             w.Name,
		Complexity:       w.Complexity,
		BytesPerByte:     w.BytesPerByte,
		HostRateFactor:   w.HostRateFactor,
		DeviceRateFactor: w.DeviceRateFactor,
	}
}

// Validate checks the workload.
func (w Workload) Validate() error {
	if w.Name == "" {
		return fmt.Errorf("offload: workload needs a name")
	}
	if !(w.SizeMB > 0) {
		return fmt.Errorf("offload: workload %q size %g must be positive", w.Name, w.SizeMB)
	}
	return nil
}

// Platform is a host model plus K cards, each card with its own
// performance model whose device side runs the card's share. The
// paper's platform is one unnamed card sharing the host's model; its
// noise key is the workload name. A named card keys its noise by
// "<workload>:<name>", so identical cards observe independent noise.
// The zero value is not usable; construct with NewPlatform,
// NewPlatformWithModel or WithCards.
type Platform struct {
	host  *perf.Model
	cards []card
}

// card is one accelerator of a Platform.
type card struct {
	name  string
	model *perf.Model
}

// NewPlatform returns the paper's platform (2x Xeon E5 + Xeon Phi 7120P)
// with default calibration.
func NewPlatform() *Platform {
	return NewPlatformWithModel(perf.NewPaperModel())
}

// NewPlatformWithModel wraps a custom performance model as a host plus
// one unnamed card (used by tests and by the custom-machine example).
func NewPlatformWithModel(m *perf.Model) *Platform {
	return &Platform{host: m, cards: []card{{model: m}}}
}

// WithCards returns a platform with p's host and n copies of p's first
// card, named "phi0".."phi<n-1>" when the card is a Xeon Phi and
// "dev0".."dev<n-1>" otherwise. Each copy's noise seed is decorrelated
// (same silicon, different card).
func (p *Platform) WithCards(n int) (*Platform, error) {
	if n < 1 {
		return nil, fmt.Errorf("offload: need at least one card, got %d", n)
	}
	prefix := "dev"
	if strings.Contains(p.Device().Name, "Phi") {
		prefix = "phi"
	}
	cards := make([]card, n)
	for i := range cards {
		m := *p.cards[0].model
		m.Cal.NoiseSeed ^= uint64(i+1) * 0x9E3779B97F4A7C15
		cards[i] = card{name: fmt.Sprintf("%s%d", prefix, i), model: &m}
	}
	return &Platform{host: p.host, cards: cards}, nil
}

// Model exposes the host's performance model (calibration knobs); on a
// one-card platform built by NewPlatform or NewPlatformWithModel the
// card shares it.
func (p *Platform) Model() *perf.Model { return p.host }

// Host and Device expose the processor descriptions; Device is the
// first card's.
func (p *Platform) Host() *machine.Processor   { return p.host.Host }
func (p *Platform) Device() *machine.Processor { return p.cards[0].model.Device }

// NumCards returns the accelerator count K.
func (p *Platform) NumCards() int { return len(p.cards) }

// CardName returns the display name of card i; an unnamed card, or an
// index beyond the platform's count, is labeled "dev<i>".
func (p *Platform) CardName(i int) string {
	if i < len(p.cards) && p.cards[i].name != "" {
		return p.cards[i].name
	}
	return fmt.Sprintf("dev%d", i)
}

// checkFraction is the split check both measurement paths share: a
// unit's share must lie in [0,100]. The negated comparison also rejects
// NaN, which fails every ordered comparison.
func checkFraction(unit string, pct float64) error {
	if !(pct >= 0 && pct <= 100) {
		return fmt.Errorf("offload: %s fraction %g outside [0,100]", unit, pct)
	}
	return nil
}

// Shares returns the host and device share sizes in MB of a split that
// maps hostPct percent of the workload to the host. Every path that
// splits a workload between the host and one card — measurement, the
// per-unit tables and the prediction path — sizes its shares here.
func (w Workload) Shares(hostPct float64) (hostMB, devMB float64, err error) {
	if err := checkFraction("host", hostPct); err != nil {
		return 0, 0, err
	}
	hostMB = w.SizeMB * hostPct / 100
	devMB = w.SizeMB - hostMB
	return hostMB, devMB, nil
}

// Measure returns the modeled execution times of running workload w under
// configuration cfg. trial selects the measurement-noise draw; repeated
// measurements with equal trial reproduce identical values (a stable
// testbed), different trials model re-runs.
func (p *Platform) Measure(w Workload, cfg space.Config, trial int) (Times, error) {
	m, err := p.MeasureFull(w, cfg, trial)
	return m.Times, err
}

// MeasureFull is Measure extended with the energy dimension: one
// experiment yields both the per-side times and the per-side energy, so
// every objective can be scored from a single cached evaluation. Energy
// accounting: each engaged unit draws its active power while its share
// runs and its static power while it waits for the other side to finish
// (the makespan); a unit with no work consumes nothing. cfg splits the
// work over the host and one card, so p must have exactly one.
func (p *Platform) MeasureFull(w Workload, cfg space.Config, trial int) (Measurement, error) {
	if err := p.checkOneCard(w); err != nil {
		return Measurement{}, err
	}
	hostMB, devMB, err := w.Shares(cfg.HostFraction)
	if err != nil {
		return Measurement{}, err
	}
	a := [2]perf.Assignment{
		{SizeMB: hostMB, Threads: cfg.HostThreads, Affinity: cfg.HostAffinity},
		{SizeMB: devMB, Threads: cfg.DeviceThreads, Affinity: cfg.DeviceAffinity},
	}
	var u [2]perf.Unit
	if err := p.measureUnits(w, a[:], trial, u[:]); err != nil {
		return Measurement{}, err
	}
	return Compose(u[0], u[1]), nil
}

// checkOneCard validates w and checks that p splits a host/device
// configuration: a space.Config addresses exactly one card.
func (p *Platform) checkOneCard(w Workload) error {
	if err := w.Validate(); err != nil {
		return err
	}
	if len(p.cards) != 1 {
		return fmt.Errorf("offload: a host/device configuration needs a one-card platform, not %d cards", len(p.cards))
	}
	return nil
}

// Compose builds the measurement of one host/device run from its two
// priced units: E is the makespan max(T_host, T_device) (Equation 2),
// and each engaged unit's energy is priced over it.
func Compose(host, device perf.Unit) Measurement {
	makespan := max(host.Time, device.Time)
	return Measurement{
		Times:  Times{Host: host.Time, Device: device.Time},
		Energy: Energy{Host: host.Energy(makespan), Device: device.Energy(makespan)},
	}
}

// cardTraits returns the noise traits of card i for a workload whose
// host traits are tr: a named card keys its noise by
// "<workload>:<name>".
func (p *Platform) cardTraits(tr perf.Traits, i int) perf.Traits {
	if name := p.cards[i].name; name != "" {
		tr.Name += ":" + name
	}
	return tr
}

// measureUnits prices one experiment's units. a and u are host-first
// (index 0 the host, 1+i card i) and sized 1+K: a holds the shares and
// u receives each unit's price. It is the per-unit pricing code every
// measurement path shares: MeasureFull, MeasureSplit and the per-unit
// tables.
func (p *Platform) measureUnits(w Workload, a []perf.Assignment, trial int, u []perf.Unit) error {
	tr := w.Traits()
	var err error
	if u[0], err = p.host.HostUnit(a[0], tr, trial); err != nil {
		return err
	}
	for i, c := range p.cards {
		if u[1+i], err = c.model.DeviceUnit(a[1+i], p.cardTraits(tr, i), trial); err != nil {
			return err
		}
	}
	return nil
}

// Share is one processing unit's part of a Split.
type Share struct {
	Threads  int
	Affinity machine.Affinity
	// FractionPct is the percentage of the workload mapped to the unit.
	FractionPct float64
}

func (s Share) assignment(w Workload) perf.Assignment {
	return perf.Assignment{SizeMB: w.SizeMB * s.FractionPct / 100, Threads: s.Threads, Affinity: s.Affinity}
}

// Split distributes a workload over the host and K cards; the
// fractions form a simplex (each in [0,100], summing to 100).
type Split struct {
	Host  Share
	Cards []Share
}

// Validate checks the card count and the fraction simplex. The simplex
// tolerance scales with the number of units: each fraction derived from
// float arithmetic (e.g. thirds) contributes its own rounding error, so a
// fixed epsilon would start rejecting valid splits as K grows.
func (s Split) Validate(cards int) error {
	if len(s.Cards) != cards {
		return fmt.Errorf("offload: split has %d card shares for %d cards", len(s.Cards), cards)
	}
	if err := checkFraction("host", s.Host.FractionPct); err != nil {
		return err
	}
	total := s.Host.FractionPct
	for i, c := range s.Cards {
		if err := checkFraction("card", c.FractionPct); err != nil {
			return fmt.Errorf("%w (card %d)", err, i)
		}
		total += c.FractionPct
	}
	tol := 1e-9 * float64(1+len(s.Cards))
	if math.Abs(total-100) > tol {
		return fmt.Errorf("offload: split fractions sum to %g, want 100", total)
	}
	return nil
}

// String renders the split without card names (a bare Split does not
// know which platform it belongs to), e.g.
// "host 40% (48T,scatter) | 30% (240T,balanced) | 30% (240T,balanced)".
// Use Platform.FormatSplit to label each card entry with its name.
func (s Split) String() string { return s.format(nil) }

// FormatSplit renders the split with each card entry labeled by
// CardName, e.g. "host 40% (48T,scatter) | phi0 30% (240T,balanced) |
// phi1 30% (240T,balanced)".
func (p *Platform) FormatSplit(s Split) string { return s.format(p.CardName) }

func (s Split) format(label func(int) string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "host %g%% (%dT,%s)", s.Host.FractionPct, s.Host.Threads, s.Host.Affinity)
	for i, c := range s.Cards {
		sb.WriteString(" | ")
		if label != nil {
			sb.WriteString(label(i) + " ")
		}
		fmt.Fprintf(&sb, "%g%% (%dT,%s)", c.FractionPct, c.Threads, c.Affinity)
	}
	return sb.String()
}

// SplitMeasurement is one evaluated split: per-unit times in seconds
// and energies in joules, host first, from a single experiment.
type SplitMeasurement struct {
	Times, Energy []float64
}

// E is the time objective: the makespan over all units.
func (m SplitMeasurement) E() float64 {
	e := 0.0
	for _, t := range m.Times {
		e = max(e, t)
	}
	return e
}

// Joules is the energy objective: joules summed over all units (a unit
// with no work consumes nothing).
func (m SplitMeasurement) Joules() float64 {
	total := 0.0
	for _, e := range m.Energy {
		total += e
	}
	return total
}

// MeasureSplit evaluates a split over the host and p's cards and
// reports per-unit times and energies, under the same accounting as
// MeasureFull.
func (p *Platform) MeasureSplit(w Workload, s Split, trial int) (SplitMeasurement, error) {
	if err := w.Validate(); err != nil {
		return SplitMeasurement{}, err
	}
	if err := s.Validate(len(p.cards)); err != nil {
		return SplitMeasurement{}, err
	}
	n := 1 + len(p.cards)
	a := make([]perf.Assignment, n)
	a[0] = s.Host.assignment(w)
	for i, c := range s.Cards {
		a[1+i] = c.assignment(w)
	}
	u := make([]perf.Unit, n)
	if err := p.measureUnits(w, a, trial, u); err != nil {
		return SplitMeasurement{}, err
	}
	makespan := u[0].Time
	for _, x := range u[1:] {
		makespan = max(makespan, x.Time)
	}
	vals := make([]float64, 2*n)
	m := SplitMeasurement{Times: vals[:n:n], Energy: vals[n:]}
	for i, x := range u {
		m.Times[i], m.Energy[i] = x.Time, x.Energy(makespan)
	}
	return m, nil
}

// ExecutionReport combines real matching results with modeled times.
type ExecutionReport struct {
	// Times are the modeled execution times for the actual input size.
	Times Times
	// HostMatches and DeviceMatches are the real match counts of each
	// share; Matches is their sum.
	HostMatches, DeviceMatches, Matches uint64
	// HostBytes and DeviceBytes record the byte split.
	HostBytes, DeviceBytes int64
	// HostRun and DeviceRun describe the parallel-matching execution.
	HostRun, DeviceRun parem.Result
}

// Execute really runs the matching engine over total bytes from src,
// split according to cfg: the host share on cfg.HostThreads workers and
// the device share on a device-simulating executor with
// cfg.DeviceThreads workers. Reported times come from the performance
// model applied to the actual share sizes; match counts are real and
// chunking-independent.
func (p *Platform) Execute(w Workload, cfg space.Config, d *automata.DFA, src parem.Source, total int64, trial int) (ExecutionReport, error) {
	if err := w.Validate(); err != nil {
		return ExecutionReport{}, err
	}
	if total < 0 {
		return ExecutionReport{}, fmt.Errorf("offload: negative input size %d", total)
	}
	if total == 0 {
		return ExecutionReport{}, nil // nothing to do: empty report
	}
	if err := checkFraction("host", cfg.HostFraction); err != nil {
		return ExecutionReport{}, err
	}
	hostBytes := int64(float64(total) * cfg.HostFraction / 100)
	devBytes := total - hostBytes

	report := ExecutionReport{HostBytes: hostBytes, DeviceBytes: devBytes}

	// Model the times for the actual byte sizes.
	times, err := p.Measure(w.Scaled(float64(total)/(1<<20)), cfg, trial)
	if err != nil {
		return ExecutionReport{}, err
	}
	report.Times = times

	// Real matching. The "device" executor runs the same engine: the
	// substitution for unavailable Xeon Phi hardware (DESIGN.md). The
	// device share resumes from the host share's final automaton state so
	// matches straddling the distribution boundary are counted exactly
	// once; the total therefore equals a sequential pass over the whole
	// input.
	boundary := d.Start
	if hostBytes > 0 {
		res, err := parem.CountSource(d, src, hostBytes, parem.Options{Workers: cfg.HostThreads})
		if err != nil {
			return ExecutionReport{}, fmt.Errorf("offload: host share: %w", err)
		}
		report.HostRun = res
		report.HostMatches = res.Matches
		boundary = res.Final
	}
	if devBytes > 0 {
		res, err := parem.CountSource(d, parem.Section(src, hostBytes), devBytes, parem.Options{
			Workers:    cfg.DeviceThreads,
			StartState: &boundary,
		})
		if err != nil {
			return ExecutionReport{}, fmt.Errorf("offload: device share: %w", err)
		}
		report.DeviceRun = res
		report.DeviceMatches = res.Matches
	}
	report.Matches = report.HostMatches + report.DeviceMatches
	return report, nil
}
