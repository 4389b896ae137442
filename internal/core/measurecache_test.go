package core

import (
	"testing"

	"hetopt/internal/dna"
	"hetopt/internal/offload"
	"hetopt/internal/search"
	"hetopt/internal/space"
)

// TestMeasureCacheInterposes: with a search.Cache interposed via
// Instance.MeasureCache, a repeated run pays zero physical experiments
// (everything is served from the memo) and returns a bit-identical
// result — the contract the serving layer's cross-job sharing relies
// on.
func TestMeasureCacheInterposes(t *testing.T) {
	w := offload.GenomeWorkload(dna.Human)
	platform := offload.NewPlatform()
	meas := NewMeasurer(platform, w)
	inst := &Instance{
		Schema:       space.PaperSchema(),
		Measurer:     meas,
		MeasureCache: search.NewCache(meas),
	}
	opt := Options{Iterations: 80, Seed: 21}

	first, err := Run(SAM, inst, opt)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	if first.Experiments == 0 {
		t.Fatalf("first run paid no experiments; the cache must still charge unique measurements")
	}
	second, err := Run(SAM, inst, opt)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if second.Experiments != 0 {
		t.Fatalf("second identical run paid %d experiments, want 0 (all served from the interposed cache)", second.Experiments)
	}
	if first.Config != second.Config || first.SearchE != second.SearchE ||
		first.Measured != second.Measured || first.MeasuredEnergy != second.MeasuredEnergy {
		t.Fatalf("cached run diverged:\n%+v\n%+v", first, second)
	}

	// A fresh instance without the cache reproduces the same result:
	// interposing a cache never changes a value.
	plain := &Instance{Schema: space.PaperSchema(), Measurer: NewMeasurer(platform, w)}
	third, err := Run(SAM, plain, opt)
	if err != nil {
		t.Fatalf("plain run: %v", err)
	}
	if third.Config != first.Config || third.Measured != first.Measured {
		t.Fatalf("cache changed the result:\n%+v\n%+v", first, third)
	}
}

// TestTableMeasureChargesDistinctConfigs: runs measuring through one
// shared unit table (each through its own TableMeasure) are charged
// exactly what a per-run memo charges — one experiment per distinct
// configuration — however warm the table, and return the values a
// plain Measurer measures.
func TestTableMeasureChargesDistinctConfigs(t *testing.T) {
	w := offload.GenomeWorkload(dna.Human)
	platform := offload.NewPlatform()
	schema := space.PaperSchema()
	opt := Options{Iterations: 80, Seed: 21}

	memoMeas := NewMeasurer(platform, w)
	want, err := Run(SAM, &Instance{Schema: schema, Measurer: memoMeas, MeasureCache: search.NewCache(memoMeas)}, opt)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Run(SAM, &Instance{Schema: schema, Measurer: NewMeasurer(platform, w)}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Experiments <= want.Experiments {
		t.Fatalf("the chain revisits no configuration (%d plain, %d distinct): the test needs a longer budget", plain.Experiments, want.Experiments)
	}
	tab, err := platform.UnitTable(w, 0, schema)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 2; run++ {
		meas := NewMeasurer(platform, w)
		got, err := Run(SAM, &Instance{Schema: schema, Measurer: meas, MeasureCache: NewTableMeasure(tab, meas)}, opt)
		if err != nil {
			t.Fatal(err)
		}
		if got.Experiments != want.Experiments || got.Config != want.Config ||
			got.Measured != want.Measured || got.MeasuredEnergy != want.MeasuredEnergy {
			t.Fatalf("run %d over the shared table: %+v, want %+v", run, got, want)
		}
	}
}
