package offload_test

import (
	"math"
	"sync"
	"testing"

	"hetopt/internal/dna"
	"hetopt/internal/offload"
	"hetopt/internal/scenario"
	"hetopt/internal/space"
)

// tableCase is one (platform, schema, workload) the unit table must
// reproduce.
type tableCase struct {
	name     string
	platform *offload.Platform
	schema   *space.Schema
	workload offload.Workload
}

// tableCases lists the paper schema with the human genome and every
// scenario platform's schema with each divisible family's default
// workload, so each family's traits (roofline, rate factors) are
// tabled on every platform.
func tableCases(t *testing.T) []tableCase {
	t.Helper()
	cases := []tableCase{{"paper-schema/human", offload.NewPlatform(), space.PaperSchema(), offload.GenomeWorkload(dna.Human)}}
	for _, p := range scenario.Platforms() {
		schema, err := p.Schema()
		if err != nil {
			t.Fatal(err)
		}
		platform := p.Platform()
		for _, f := range scenario.Families() {
			if f.IsDAG() {
				continue
			}
			w, err := f.Workload(f.Presets[0].Name)
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, tableCase{p.Name + "/" + f.Name, platform, schema, w})
		}
	}
	return cases
}

// sameBits reports whether two measurements are bit-identical in every
// time and energy.
func sameBits(a, b offload.Measurement) bool {
	return math.Float64bits(a.Times.Host) == math.Float64bits(b.Times.Host) &&
		math.Float64bits(a.Times.Device) == math.Float64bits(b.Times.Device) &&
		math.Float64bits(a.Energy.Host) == math.Float64bits(b.Energy.Host) &&
		math.Float64bits(a.Energy.Device) == math.Float64bits(b.Energy.Device)
}

// TestUnitTableBitIdenticalToMeasureFull: for every configuration of
// every case, at trials 0 and 1, the table-composed measurement equals
// MeasureFull bit for bit. Four workers fill one table concurrently,
// each taking every fourth ordinal, so neighbouring configurations
// sharing a unit race on its slot (run under -race in CI).
func TestUnitTableBitIdenticalToMeasureFull(t *testing.T) {
	const workers = 4
	for _, c := range tableCases(t) {
		for trial := 0; trial < 2; trial++ {
			tab, err := c.platform.UnitTable(c.workload, trial, c.schema)
			if err != nil {
				t.Fatal(err)
			}
			sp := c.schema.Space()
			var wg sync.WaitGroup
			errs := make([]error, workers)
			bad := make([]int, workers)
			for g := 0; g < workers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					bad[g] = -1
					for ord := g; ord < sp.Size(); ord += workers {
						idx, err := sp.Unflatten(ord)
						if err != nil {
							errs[g] = err
							return
						}
						cfg, err := c.schema.Config(idx)
						if err != nil {
							errs[g] = err
							return
						}
						want, werr := c.platform.MeasureFull(c.workload, cfg, trial)
						got, gerr := tab.Measure(idx)
						if (werr == nil) != (gerr == nil) || !sameBits(got, want) {
							bad[g] = ord
							return
						}
					}
				}(g)
			}
			wg.Wait()
			for g := 0; g < workers; g++ {
				if errs[g] != nil {
					t.Fatalf("%s trial %d: %v", c.name, trial, errs[g])
				}
				if bad[g] >= 0 {
					idx, _ := sp.Unflatten(bad[g])
					cfg, _ := c.schema.Config(idx)
					want, werr := c.platform.MeasureFull(c.workload, cfg, trial)
					got, gerr := tab.Measure(idx)
					t.Fatalf("%s trial %d, %v: table %+v (%v), MeasureFull %+v (%v)", c.name, trial, cfg, got, gerr, want, werr)
				}
			}
			if units := (sp.Params[space.ParamHostFraction].Levels()) *
				(sp.Params[space.ParamHostThreads].Levels()*sp.Params[space.ParamHostAffinity].Levels() +
					sp.Params[space.ParamDeviceThreads].Levels()*sp.Params[space.ParamDeviceAffinity].Levels()); tab.Priced() < units {
				t.Fatalf("%s trial %d: table priced %d units, the schema has %d", c.name, trial, tab.Priced(), units)
			}
		}
	}
}

// TestUnitTableLazyFill: a table prices only the units the visited
// configurations use, once each when visited sequentially, and a
// re-visit replays the stored prices.
func TestUnitTableLazyFill(t *testing.T) {
	p := offload.NewPlatform()
	schema := space.PaperSchema()
	tab, err := p.UnitTable(offload.GenomeWorkload(dna.Human), 0, schema)
	if err != nil {
		t.Fatal(err)
	}
	idx := []int{5, 1, 8, 0, 24}
	first, err := tab.Measure(idx)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Priced() != 2 {
		t.Fatalf("one configuration priced %d units, want 2", tab.Priced())
	}
	again, err := tab.Measure(idx)
	if err != nil || again != first || tab.Priced() != 2 {
		t.Fatalf("re-visit priced again or changed: %d units, %+v vs %+v (%v)", tab.Priced(), again, first, err)
	}
	// Same host unit, new device unit.
	idx[space.ParamDeviceThreads] = 7
	if _, err := tab.Measure(idx); err != nil {
		t.Fatal(err)
	}
	if tab.Priced() != 3 {
		t.Fatalf("a configuration sharing the host unit priced %d units in total, want 3", tab.Priced())
	}
	for _, bad := range [][]int{{0, 0, 0, 0}, {6, 0, 0, 0, 0}, {0, 0, 0, 0, -1}} {
		if _, err := tab.Measure(bad); err == nil {
			t.Errorf("index %v accepted", bad)
		}
	}
}

// TestUnitTableRejectsMultiCard: a host/device table needs a one-card
// platform, as MeasureFull does.
func TestUnitTableRejectsMultiCard(t *testing.T) {
	p, err := offload.NewPlatform().WithCards(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.UnitTable(offload.GenomeWorkload(dna.Human), 0, space.PaperSchema()); err == nil {
		t.Fatal("two-card platform accepted")
	}
	if _, err := offload.NewPlatform().UnitTable(offload.Workload{}, 0, space.PaperSchema()); err == nil {
		t.Fatal("invalid workload accepted")
	}
}

// TestUnitTableMeasureZeroAllocs: a warm table composes a measurement
// from two slot loads without allocating.
func TestUnitTableMeasureZeroAllocs(t *testing.T) {
	tab, err := offload.NewPlatform().UnitTable(offload.GenomeWorkload(dna.Human), 0, space.PaperSchema())
	if err != nil {
		t.Fatal(err)
	}
	idx := []int{5, 1, 8, 0, 24}
	if _, err := tab.Measure(idx); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := tab.Measure(idx); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm Measure allocates %g allocs/op, want 0", allocs)
	}
}
