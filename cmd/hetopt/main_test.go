package main

import (
	"hetopt"

	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// base returns the default parameters of one CLI run, mirroring the flag
// defaults.
func base() params {
	return params{
		method: "saml", strategy: "auto", genome: "human", iterations: 1000, seed: 1,
		parallel: 1, restarts: 1, objective: "time", alpha: 0.5, slack: 0.10,
	}
}

func TestRunSingleMethod(t *testing.T) {
	if testing.Short() {
		t.Skip("trains full models")
	}
	p := base()
	p.genome = "cat"
	p.iterations = 200
	p.parallel, p.restarts = 2, 2
	if err := run(p); err != nil {
		t.Fatal(err)
	}
}

func TestRunInjectedStrategy(t *testing.T) {
	if testing.Short() {
		t.Skip("trains full models")
	}
	// The portfolio races every strategy over a shared cache; the run
	// must complete under parallelism with a non-preset strategy.
	p := base()
	p.genome, p.iterations, p.strategy = "cat", 150, "portfolio"
	p.parallel = 4
	if err := run(p); err != nil {
		t.Fatal(err)
	}
}

func TestRunCustomSize(t *testing.T) {
	if testing.Short() {
		t.Skip("trains full models")
	}
	// A small override size exercises the Scaled path; CPU-only should
	// win, and the run must still succeed.
	p := base()
	p.method, p.iterations, p.sizeMB = "sam", 100, 190
	if err := run(p); err != nil {
		t.Fatal(err)
	}
}

func TestRunEnergyObjective(t *testing.T) {
	if testing.Short() {
		t.Skip("trains full models")
	}
	p := base()
	p.method, p.iterations, p.objective = "sam", 300, "energy"
	if err := run(p); err != nil {
		t.Fatal(err)
	}
}

func TestRunValidation(t *testing.T) {
	// Genome and method validation happen before the expensive training.
	p := base()
	p.genome = "unicorn"
	if err := run(p); err == nil {
		t.Error("unknown genome should fail")
	}
}

// TestRunRejectsBadFlags checks that out-of-range flags fail fast with a
// clear error instead of being clamped deep inside the search engine.
func TestRunRejectsBadFlags(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*params)
		want string
	}{
		{"negative parallel", func(p *params) { p.parallel = -2 }, "-parallel"},
		{"negative restarts", func(p *params) { p.restarts = -1 }, "-restarts"},
		{"negative iterations", func(p *params) { p.iterations = -5 }, "-iterations"},
		{"unknown strategy", func(p *params) { p.strategy = "quantum" }, "-strategy"},
		{"unknown objective", func(p *params) { p.objective = "carbon" }, "-objective"},
		{"alpha above one", func(p *params) { p.alpha = 1.5 }, "-alpha"},
		{"negative alpha", func(p *params) { p.alpha = -0.1 }, "-alpha"},
		{"negative slack", func(p *params) { p.slack = -0.2 }, "-slack"},
		{"prove without exact", func(p *params) { p.prove = true }, "-strategy exact"},
		{"pool size without exact", func(p *params) { p.poolSize = 4 }, "-strategy exact"},
		{"pool gap without exact", func(p *params) { p.poolGap = 0.2 }, "-strategy exact"},
		{"negative pool size", func(p *params) { p.strategy = "exact"; p.poolSize = -1 }, "-pool-size"},
		{"oversized pool", func(p *params) { p.strategy = "exact"; p.poolSize = 1 << 20 }, "-pool-size"},
		{"negative pool gap", func(p *params) { p.strategy = "exact"; p.poolGap = -0.5 }, "-pool-gap"},
		{"NaN pool gap", func(p *params) { p.strategy = "exact"; p.poolGap = math.NaN() }, "-pool-gap"},
		{"infinite pool gap", func(p *params) { p.strategy = "exact"; p.poolGap = math.Inf(1) }, "-pool-gap"},
		{"NaN alpha", func(p *params) { p.objective = "weighted"; p.alpha = math.NaN() }, "-alpha"},
		{"NaN slack", func(p *params) { p.objective = "bounded"; p.slack = math.NaN() }, "-slack"},
		{"infinite slack", func(p *params) { p.objective = "bounded"; p.slack = math.Inf(1) }, "-slack"},
		{"NaN size", func(p *params) { p.sizeMB = math.NaN() }, "-size"},
		{"infinite size", func(p *params) { p.sizeMB = math.Inf(1) }, "-size"},
		{"negative size", func(p *params) { p.sizeMB = -5 }, "-size"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := base()
			tc.mut(&p)
			err := run(p)
			if err == nil {
				t.Fatal("invalid flags should fail")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name the offending flag %s", err, tc.want)
			}
		})
	}
}

func TestRunModelCache(t *testing.T) {
	if testing.Short() {
		t.Skip("trains full models")
	}
	cache := filepath.Join(t.TempDir(), "models.gob")
	// First run trains and writes the cache.
	p := base()
	p.genome, p.iterations, p.modelCache = "dog", 100, cache
	if err := run(p); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(cache); err != nil {
		t.Fatalf("model cache not written: %v", err)
	}
	// Second run loads it (much faster; correctness checked by completing).
	start := time.Now()
	if err := run(p); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 2*time.Second {
		t.Error("cached run suspiciously slow; cache likely ignored")
	}
}

// TestFlagsRoundTripRegistry: every name the scenario registry
// advertises is accepted by the -workload/-platform flag validation,
// and unknown names are rejected with an actionable error.
func TestFlagsRoundTripRegistry(t *testing.T) {
	for _, name := range hetopt.Scenarios().WorkloadNames() {
		p := base()
		p.genome = ""
		p.workload = name
		if err := p.validate(); err != nil {
			t.Errorf("registered workload %q rejected: %v", name, err)
		}
	}
	for _, name := range hetopt.Scenarios().PlatformNames() {
		p := base()
		p.platform = name
		if err := p.validate(); err != nil {
			t.Errorf("registered platform %q rejected: %v", name, err)
		}
	}
	p := base()
	p.genome = ""
	p.workload = "spnv"
	err := p.validate()
	if err == nil || !strings.Contains(err.Error(), "spmv") {
		t.Errorf("unknown workload error not actionable: %v", err)
	}
	p = base()
	p.platform = "papper"
	err = p.validate()
	if err == nil || !strings.Contains(err.Error(), "paper") {
		t.Errorf("unknown platform error not actionable: %v", err)
	}
	p = base()
	p.genome, p.workload = "human", "spmv"
	if err := p.validate(); err == nil {
		t.Error("conflicting -genome and -workload accepted")
	}
}

// TestStrategyNamesStayInSync: every name StrategyNames advertises —
// the listing the -strategy usage error prints — parses back to a
// strategy answering to that name, and the exact strategy is among
// them. A strategy added to the registry can never be missing from the
// CLI's did-you-mean listing, and vice versa.
func TestStrategyNamesStayInSync(t *testing.T) {
	names := hetopt.StrategyNames()
	sawExact := false
	for _, name := range names {
		strat, err := hetopt.ParseStrategy(name)
		if err != nil {
			t.Errorf("advertised strategy %q does not parse: %v", name, err)
			continue
		}
		if strat == nil || strat.Name() != name {
			t.Errorf("strategy %q does not round-trip: parsed %v", name, strat)
		}
		if name == "exact" {
			sawExact = true
		}
	}
	if !sawExact {
		t.Error("exact missing from StrategyNames")
	}
	p := base()
	p.strategy = "exactt"
	err := p.validate()
	if err == nil {
		t.Fatal("unknown strategy accepted")
	}
	for _, name := range names {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("-strategy listing omits %q: %v", name, err)
		}
	}
}

// TestRunExactDAGCertified drives the exact strategy end to end through
// the CLI's task-graph path: branch-and-bound over the 2^11 fork-join
// placements with a proof and a diverse pool (no model training, so the
// test is cheap).
func TestRunExactDAGCertified(t *testing.T) {
	p := base()
	p.genome = ""
	p.workload = "dag:fork-join"
	p.method = "em"
	p.strategy = "exact"
	p.prove = true
	p.poolSize = 3
	if err := run(p); err != nil {
		t.Fatal(err)
	}
}
