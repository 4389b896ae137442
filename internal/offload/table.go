package offload

import (
	"fmt"
	"sync/atomic"

	"hetopt/internal/machine"
	"hetopt/internal/perf"
	"hetopt/internal/space"
)

// A configuration's measurement depends on each unit's own assignment
// only: the host's (threads, affinity, share) and the card's. The
// 19,926-configuration paper space therefore holds just 41×18 host and
// 41×27 device units. A UnitTable prices each unit once, lazily, and
// composes a configuration from two table loads (see DESIGN.md, "The
// hot path").

// UnitPricer prices one unit's share; the table calls it at most once
// per unit in the common case (see UnitTable).
type UnitPricer func(a perf.Assignment) (perf.Unit, error)

// UnitTable is a dense per-unit price table over the levels of one
// schema: one slot per (share level, threads level, affinity level) and
// side. Measure composes a configuration's measurement from its two
// units through Compose, so a tabled value is bit-identical to pricing
// the configuration directly.
//
// Slots fill lazily and without locks: the first worker to reach an
// empty slot claims it, prices the unit and publishes it; a worker
// that finds a slot being filled prices the unit itself rather than
// wait. Pricing is pure, so both get the same value. A failed pricing
// publishes nothing and is retried on the next visit.
//
// The zero value is not usable; construct with Platform.UnitTable
// (measured prices) or NewUnitTable (any pricer, e.g. predictions).
type UnitTable struct {
	schema *space.Schema
	levels [space.NumParams]int
	// fracErr holds the fraction check of each share level; hostMB
	// and devMB its share sizes.
	fracErr      []error
	host, device tableSide
	priced       atomic.Int64
}

// tableSide is one side's slots and the levels that address them.
type tableSide struct {
	threads []int
	affs    []machine.Affinity
	sizeMB  []float64 // per share level
	slots   []unitSlot
	price   UnitPricer
}

// Slot states: a slot is published exactly once, by the worker that
// claimed it.
const (
	slotEmpty uint32 = iota
	slotFilling
	slotReady
)

// unitSlot is one lazily priced unit. u is written only by the worker
// that moved state from empty to filling, and read only after state
// reads ready, so the atomic state orders every access to it.
type unitSlot struct {
	state atomic.Uint32
	u     perf.Unit
}

// NewUnitTable builds an empty table over schema's levels for workload
// w, pricing host units with host and device units with device. Each
// share level splits w through Workload.Shares; a level the fraction
// check rejects makes every configuration at it fail with that error,
// exactly as measuring it would.
func NewUnitTable(schema *space.Schema, w Workload, host, device UnitPricer) *UnitTable {
	t := &UnitTable{schema: schema}
	for i := range t.levels {
		t.levels[i] = schema.Space().Params[i].Levels()
	}
	fractions := schema.FractionValues()
	t.fracErr = make([]error, len(fractions))
	hostMB := make([]float64, len(fractions))
	devMB := make([]float64, len(fractions))
	for i, f := range fractions {
		hostMB[i], devMB[i], t.fracErr[i] = w.Shares(f)
	}
	t.host = newTableSide(schema.HostThreadValues(), schema.HostAffinityValues(), hostMB, host)
	t.device = newTableSide(schema.DeviceThreadValues(), schema.DeviceAffinityValues(), devMB, device)
	return t
}

func newTableSide(threads []int, affs []machine.Affinity, sizeMB []float64, price UnitPricer) tableSide {
	return tableSide{
		threads: threads,
		affs:    affs,
		sizeMB:  sizeMB,
		slots:   make([]unitSlot, len(sizeMB)*len(threads)*len(affs)),
		price:   price,
	}
}

// UnitTable returns an empty table of p's measured unit prices for
// workload w at the given trial over schema's levels: the tabled form
// of MeasureFull. p must have exactly one card.
func (p *Platform) UnitTable(w Workload, trial int, schema *space.Schema) (*UnitTable, error) {
	if err := p.checkOneCard(w); err != nil {
		return nil, err
	}
	tr := w.Traits()
	card := p.cards[0].model
	cardTr := p.cardTraits(tr, 0)
	return NewUnitTable(schema, w,
		func(a perf.Assignment) (perf.Unit, error) { return p.host.HostUnit(a, tr, trial) },
		func(a perf.Assignment) (perf.Unit, error) { return card.DeviceUnit(a, cardTr, trial) },
	), nil
}

// Schema returns the schema whose levels index the table.
func (t *UnitTable) Schema() *space.Schema { return t.schema }

// Priced returns how many units the table has priced so far: the
// physical pricing work, which concurrent fills of one slot can push
// above the number of distinct units.
func (t *UnitTable) Priced() int { return int(t.priced.Load()) }

// Measure returns the measurement of the configuration at the schema
// index vector state.
func (t *UnitTable) Measure(state []int) (Measurement, error) {
	if len(state) != len(t.levels) {
		return Measurement{}, fmt.Errorf("offload: index has %d entries for %d parameters", len(state), len(t.levels))
	}
	for i, v := range state {
		if v < 0 || v >= t.levels[i] {
			return Measurement{}, fmt.Errorf("offload: parameter %d index %d out of range [0,%d)", i, v, t.levels[i])
		}
	}
	f := state[space.ParamHostFraction]
	if err := t.fracErr[f]; err != nil {
		return Measurement{}, err
	}
	h, err := t.unit(&t.host, f, state[space.ParamHostThreads], state[space.ParamHostAffinity])
	if err != nil {
		return Measurement{}, err
	}
	d, err := t.unit(&t.device, f, state[space.ParamDeviceThreads], state[space.ParamDeviceAffinity])
	if err != nil {
		return Measurement{}, err
	}
	return Compose(h, d), nil
}

// unit returns the price of one side's unit at (share, threads,
// affinity) levels, filling its slot on first use.
func (t *UnitTable) unit(s *tableSide, share, threads, aff int) (perf.Unit, error) {
	slot := &s.slots[(share*len(s.threads)+threads)*len(s.affs)+aff]
	if slot.state.Load() == slotReady {
		return slot.u, nil
	}
	claimed := slot.state.CompareAndSwap(slotEmpty, slotFilling)
	t.priced.Add(1)
	u, err := s.price(perf.Assignment{SizeMB: s.sizeMB[share], Threads: s.threads[threads], Affinity: s.affs[aff]})
	if claimed {
		if err != nil {
			slot.state.Store(slotEmpty)
		} else {
			slot.u = u
			slot.state.Store(slotReady)
		}
	}
	return u, err
}
