// Package core implements the paper's primary contribution: determining a
// near-optimal system configuration for heterogeneous work distribution by
// combining combinatorial optimization (simulated annealing over the
// configuration space) with machine learning (boosted decision tree
// regression predicting per-side execution times).
//
// The four optimization methods of Table II are provided behind one
// interface, differing only in how they explore the space and how they
// evaluate candidate configurations:
//
//	EM    enumeration         + measurements
//	EML   enumeration         + machine learning
//	SAM   simulated annealing + measurements
//	SAML  simulated annealing + machine learning
//
// Methods that search on predictions (EML, SAML) are scored by measuring
// their suggested configuration, the paper's fair-comparison methodology
// (Section IV-C).
package core

import (
	"fmt"
	"sync/atomic"

	"hetopt/internal/machine"
	"hetopt/internal/offload"
	"hetopt/internal/perf"
	"hetopt/internal/space"
)

// Evaluator estimates the per-side execution times and energy of a
// configuration. Implementations: *Measurer (testbed measurements) and
// *Predictor (machine-learning predictions composed with the analytic
// power model). Both sides of the measurement come from one evaluation,
// so caches keyed on the configuration serve every objective.
type Evaluator interface {
	Evaluate(cfg space.Config) (offload.Measurement, error)
}

// Measurer evaluates configurations by (simulated) measurement and counts
// how many experiments were performed — the "effort" column of Table II.
// It is safe for concurrent use: measurement is a pure function of the
// configuration and trial (see perf.Model) and the effort counter is
// atomic, so sharded enumeration and concurrent annealing chains can
// share one Measurer.
type Measurer struct {
	// Platform performs the measurements.
	Platform *offload.Platform
	// Workload is the input under optimization.
	Workload offload.Workload
	// Trial selects the measurement-noise draw (see perf.Model).
	Trial int

	count atomic.Int64
	// tab is the unit table of the last schema a search ran over, with
	// the measurement inputs it was built for.
	tab atomic.Pointer[measuredTable]
}

// measuredTable is a Measurer's unit table and the (platform,
// workload, trial, schema) it prices.
type measuredTable struct {
	platform *offload.Platform
	workload offload.Workload
	trial    int
	tab      *offload.UnitTable
}

// NewMeasurer builds a Measurer for the workload on the platform.
func NewMeasurer(p *offload.Platform, w offload.Workload) *Measurer {
	return &Measurer{Platform: p, Workload: w}
}

// Evaluate implements Evaluator by running one experiment.
func (m *Measurer) Evaluate(cfg space.Config) (offload.Measurement, error) {
	m.count.Add(1)
	return m.known(cfg)
}

// known returns the measurement of a configuration the run already
// paid for, without charging another experiment: measurements are pure
// functions of the configuration, so repeating one only reads back the
// known result.
func (m *Measurer) known(cfg space.Config) (offload.Measurement, error) {
	return m.Platform.MeasureFull(m.Workload, cfg, m.Trial)
}

// unitTable returns the Measurer's unit table over schema, building a
// new one when the schema or a measurement input changed since the
// last. Runs that reuse a Measurer reuse its priced units.
func (m *Measurer) unitTable(schema *space.Schema) (*offload.UnitTable, error) {
	if c := m.tab.Load(); c != nil && c.tab.Schema() == schema &&
		c.platform == m.Platform && c.workload == m.Workload && c.trial == m.Trial {
		return c.tab, nil
	}
	tab, err := m.Platform.UnitTable(m.Workload, m.Trial, schema)
	if err != nil {
		return nil, err
	}
	m.tab.Store(&measuredTable{platform: m.Platform, workload: m.Workload, trial: m.Trial, tab: tab})
	return tab, nil
}

// Count returns the number of experiments performed so far.
func (m *Measurer) Count() int { return int(m.count.Load()) }

// Charge advances the effort counter by one without performing a
// measurement. Interposed evaluators (Instance.MeasureCache) use it to
// charge an evaluation that a cross-run cache served physically, so a
// run's Experiments stays a pure function of the run itself rather
// than of cache warmth.
func (m *Measurer) Charge() { m.count.Add(1) }

// ResetCount zeroes the experiment counter.
func (m *Measurer) ResetCount() { m.count.Store(0) }

// stateEvaluator prices a schema index vector straight from a unit
// table, skipping the decode into a space.Config. The search problem
// uses one whenever its evaluator offers it over its schema
// (stateEvaluatorFor).
type stateEvaluator func(state []int) (offload.Measurement, error)

// stateEvaluatorFor returns the table-backed form of eval over schema,
// nil when eval has none (any Evaluator other than the three below, or
// a measurement setup the table rejects, which then fails per
// evaluation exactly as before). Every form returns the values and
// charges the effort eval.Evaluate would.
func stateEvaluatorFor(schema *space.Schema, eval Evaluator) stateEvaluator {
	switch e := eval.(type) {
	case *Predictor:
		return e.table(schema).Measure
	case *Measurer:
		if tab, err := e.unitTable(schema); err == nil {
			return measuredStates{tab: tab, meas: e}.evaluateState
		}
	case *TableMeasure:
		if e.tab.Schema() == schema {
			return e.evaluateState
		}
	}
	return nil
}

// measuredStates is a plain Measurer over its unit table: one
// experiment charged per evaluation, as Measurer.Evaluate charges.
type measuredStates struct {
	tab  *offload.UnitTable
	meas *Measurer
}

func (e measuredStates) evaluateState(state []int) (offload.Measurement, error) {
	e.meas.count.Add(1)
	return e.tab.Measure(state)
}

// TableMeasure is a measured evaluator over a unit table that several
// runs share; the serving layer shares one per workload across
// concurrent jobs, so overlapping searches price each unit once. It
// charges its run's Measurer once per distinct configuration the run
// visits, whether the table priced the units or replayed units another
// run paid, so a run's Experiments is a pure function of the run, not
// of table warmth. A visited bitset over configuration ordinals keeps
// that count; it is safe for concurrent use by one run's workers.
type TableMeasure struct {
	tab     *offload.UnitTable
	meas    *Measurer
	visited []atomic.Uint64
}

// NewTableMeasure builds the evaluator of one run: tab must price the
// measurements of meas (its platform, workload and trial).
func NewTableMeasure(tab *offload.UnitTable, meas *Measurer) *TableMeasure {
	return &TableMeasure{tab: tab, meas: meas, visited: make([]atomic.Uint64, (tab.Schema().Size()+63)/64)}
}

// Evaluate implements Evaluator. A configuration outside the table's
// schema is measured directly and charged on every call.
func (e *TableMeasure) Evaluate(cfg space.Config) (offload.Measurement, error) {
	idx, ok := e.tab.Schema().Locate(cfg)
	if !ok {
		return e.meas.Evaluate(cfg)
	}
	return e.evaluateState(idx[:])
}

func (e *TableMeasure) evaluateState(state []int) (offload.Measurement, error) {
	m, err := e.tab.Measure(state)
	if err != nil {
		return m, err
	}
	ord, err := e.tab.Schema().Space().Flatten(state)
	if err != nil {
		return m, err
	}
	bit := uint64(1) << (ord % 64)
	if e.visited[ord/64].Or(bit)&bit == 0 {
		e.meas.Charge()
	}
	return m, nil
}

// Feature layout shared by the host and device models: the paper trains on
// the number of threads, the thread affinity and the input size
// (Section III-B).
const (
	featThreads = iota
	featSizeMB
	featAffBase // three one-hot affinity indicators follow
	numFeatures = featAffBase + 3
)

// hostAffinityOrder fixes the one-hot encoding order per side.
var hostAffinityOrder = []machine.Affinity{machine.AffinityNone, machine.AffinityScatter, machine.AffinityCompact}
var deviceAffinityOrder = []machine.Affinity{machine.AffinityBalanced, machine.AffinityScatter, machine.AffinityCompact}

// HostFeatureNames and DeviceFeatureNames label the model inputs.
func HostFeatureNames() []string {
	return []string{"threads", "size-mb", "aff-none", "aff-scatter", "aff-compact"}
}

// DeviceFeatureNames labels the device model inputs.
func DeviceFeatureNames() []string {
	return []string{"threads", "size-mb", "aff-balanced", "aff-scatter", "aff-compact"}
}

// hostFeatures encodes one host-side sample.
func hostFeatures(threads int, aff machine.Affinity, sizeMB float64) []float64 {
	return sideFeatures(threads, aff, sizeMB, hostAffinityOrder)
}

// deviceFeatures encodes one device-side sample.
func deviceFeatures(threads int, aff machine.Affinity, sizeMB float64) []float64 {
	return sideFeatures(threads, aff, sizeMB, deviceAffinityOrder)
}

func sideFeatures(threads int, aff machine.Affinity, sizeMB float64, order []machine.Affinity) []float64 {
	x := new([numFeatures]float64)
	encodeSide(x, threads, aff, sizeMB, order)
	return x[:]
}

// encodeSide writes one side's feature vector into the zeroed array x.
func encodeSide(x *[numFeatures]float64, threads int, aff machine.Affinity, sizeMB float64, order []machine.Affinity) {
	x[featThreads] = float64(threads)
	x[featSizeMB] = sizeMB
	for i, a := range order {
		if a == aff {
			x[featAffBase+i] = 1
		}
	}
}

// Predictor evaluates configurations with the trained per-side regression
// models (the paper's Figure 4 predictive model). Predictions are
// tabled per unit: a configuration's prediction depends on each side's
// own (threads, affinity, share) only, so enumeration's 19,926
// configurations need only ~1,800 distinct per-side predictions. The
// table of the schema a search runs over (offload.UnitTable) fills
// lazily and lock-free, so one Predictor can serve sharded enumeration
// and parallel annealing chains, and jobs sharing it share its
// predictions.
//
// The energy side of an evaluation is not learned: predicted times are
// composed with the analytic power model (noise-free active/static power
// per unit), following the paper's split between measured behaviour and
// modeled structure.
type Predictor struct {
	models   *Models
	workload offload.Workload
	power    *perf.Model

	// tab is the unit table of the last schema a search ran over.
	tab atomic.Pointer[offload.UnitTable]
}

// NewPredictor binds trained models to a workload. power is the analytic
// model whose power constants price the predicted times into joules; use
// the platform the models were trained on (Platform.Model()).
func NewPredictor(models *Models, w offload.Workload, power *perf.Model) (*Predictor, error) {
	if models == nil || models.Host == nil || models.Device == nil {
		return nil, fmt.Errorf("core: predictor needs trained host and device models")
	}
	if power == nil {
		return nil, fmt.Errorf("core: predictor needs a performance model for energy composition")
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	return &Predictor{models: models, workload: w, power: power}, nil
}

// Evaluate implements Evaluator by predicting T_host and T_device and
// pricing them into energy with the power model. A configuration on
// the tabled schema is served from the table; any other is predicted
// directly, to the same value.
func (p *Predictor) Evaluate(cfg space.Config) (offload.Measurement, error) {
	if t := p.tab.Load(); t != nil {
		if idx, ok := t.Schema().Locate(cfg); ok {
			return t.Measure(idx[:])
		}
	}
	hostMB, devMB, err := p.workload.Shares(cfg.HostFraction)
	if err != nil {
		return offload.Measurement{}, err
	}
	h, err := p.hostUnit(perf.Assignment{SizeMB: hostMB, Threads: cfg.HostThreads, Affinity: cfg.HostAffinity})
	if err != nil {
		return offload.Measurement{}, err
	}
	d, err := p.deviceUnit(perf.Assignment{SizeMB: devMB, Threads: cfg.DeviceThreads, Affinity: cfg.DeviceAffinity})
	if err != nil {
		return offload.Measurement{}, err
	}
	return offload.Compose(h, d), nil
}

// table returns the Predictor's unit table over schema, replacing the
// table of a previous schema.
func (p *Predictor) table(schema *space.Schema) *offload.UnitTable {
	if t := p.tab.Load(); t != nil && t.Schema() == schema {
		return t
	}
	t := offload.NewUnitTable(schema, p.workload, p.hostUnit, p.deviceUnit)
	p.tab.Store(t)
	return t
}

// hostUnit prices one host share: the predicted time and the modeled
// power. An empty share is the disengaged zero unit.
func (p *Predictor) hostUnit(a perf.Assignment) (perf.Unit, error) {
	if !(a.SizeMB > 0) {
		return perf.Unit{}, nil
	}
	t, err := p.models.PredictHost(a.Threads, a.Affinity, a.SizeMB)
	if err != nil {
		return perf.Unit{}, err
	}
	return p.power.HostModeledUnit(a.Threads, a.Affinity, t)
}

// deviceUnit is the device analogue of hostUnit.
func (p *Predictor) deviceUnit(a perf.Assignment) (perf.Unit, error) {
	if !(a.SizeMB > 0) {
		return perf.Unit{}, nil
	}
	t, err := p.models.PredictDevice(a.Threads, a.Affinity, a.SizeMB)
	if err != nil {
		return perf.Unit{}, err
	}
	return p.power.DeviceModeledUnit(a.Threads, a.Affinity, t)
}
