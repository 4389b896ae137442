package main

import (
	"hetopt"

	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunWritesCompleteReport(t *testing.T) {
	out := filepath.Join(t.TempDir(), "report.txt")
	if err := run(out, false, 1, 1, false, 2, "auto", "", "", exactKnobs{}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	report := string(data)
	for _, want := range []string{
		"Table I", "Table II", "Table III",
		"Figure 2", "Figure 5", "Figure 6", "Figure 7", "Figure 8", "Figure 9",
		"Table IV", "Table V", "Table VI", "Table VII", "Table VIII", "Table IX",
		"Result 1/2", "Result 3", "Result 5",
		"Bi-objective", "energy",
		"report generated in",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// Without -ablate the extension sections are absent.
	if strings.Contains(report, "Ablation:") {
		t.Error("unexpected ablation section in plain report")
	}
}

func TestRunRejectsBadPath(t *testing.T) {
	if err := run(filepath.Join(t.TempDir(), "missing", "report.txt"), false, 1, 1, false, 1, "auto", "", "", exactKnobs{}); err == nil {
		t.Fatal("uncreatable output path should fail")
	}
}

// TestRunRejectsBadFlags checks the flag-layer validation: out-of-range
// values fail fast with an error naming the flag instead of being
// silently clamped by the search engine.
func TestRunRejectsBadFlags(t *testing.T) {
	if err := run("", false, 0, 1, false, 1, "auto", "", "", exactKnobs{}); err == nil || !strings.Contains(err.Error(), "-repeats") {
		t.Errorf("repeats=0 should fail naming -repeats, got %v", err)
	}
	if err := run("", false, -3, 1, false, 1, "auto", "", "", exactKnobs{}); err == nil || !strings.Contains(err.Error(), "-repeats") {
		t.Errorf("negative repeats should fail naming -repeats, got %v", err)
	}
	if err := run("", false, 1, 1, false, -4, "auto", "", "", exactKnobs{}); err == nil || !strings.Contains(err.Error(), "-parallel") {
		t.Errorf("negative parallel should fail naming -parallel, got %v", err)
	}
	if err := run("", false, 1, 1, false, 1, "quantum", "", "", exactKnobs{}); err == nil || !strings.Contains(err.Error(), "-strategy") {
		t.Errorf("unknown strategy should fail naming -strategy, got %v", err)
	}
	// The exact-only knobs are rejected under any other strategy and
	// range-checked under exact.
	if err := validate(1, 0, "anneal", "", "", true, 0, 0); err == nil || !strings.Contains(err.Error(), "-strategy exact") {
		t.Errorf("-prove without -strategy exact should fail, got %v", err)
	}
	if err := validate(1, 0, "exact", "", "", false, -1, 0); err == nil || !strings.Contains(err.Error(), "-pool-size") {
		t.Errorf("negative pool size should fail naming -pool-size, got %v", err)
	}
	for _, gap := range []float64{-0.5, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := validate(1, 0, "exact", "", "", false, 0, gap); err == nil || !strings.Contains(err.Error(), "-pool-gap") {
			t.Errorf("pool gap %g should fail naming -pool-gap, got %v", gap, err)
		}
	}
	if err := validate(1, 0, "exact", "", "", true, 4, 0.2); err != nil {
		t.Errorf("valid exact knobs rejected: %v", err)
	}
}

func TestRunJSONMode(t *testing.T) {
	out := filepath.Join(t.TempDir(), "report.json")
	if err := run(out, false, 1, 1, true, 2, "auto", "", "", exactKnobs{}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "\"space_size\": 19926") {
		t.Error("JSON report missing space size")
	}
	if !strings.Contains(string(data), "fig9_method_comparison") {
		t.Error("JSON report missing comparisons")
	}
}

// TestScenarioFlagsRoundTripRegistry: every registered scenario name is
// accepted by the -workload/-platform validation.
func TestScenarioFlagsRoundTripRegistry(t *testing.T) {
	for _, name := range hetopt.Scenarios().WorkloadNames() {
		if err := validate(1, 0, "auto", name, "", false, 0, 0); err != nil {
			t.Errorf("registered workload %q rejected: %v", name, err)
		}
	}
	for _, name := range hetopt.Scenarios().PlatformNames() {
		if err := validate(1, 0, "auto", "", name, false, 0, 0); err != nil {
			t.Errorf("registered platform %q rejected: %v", name, err)
		}
	}
	if err := validate(1, 0, "auto", "plankton", "", false, 0, 0); err == nil || !strings.Contains(err.Error(), "-workload") {
		t.Errorf("unknown workload error not actionable: %v", err)
	}
	if err := validate(1, 0, "auto", "", "mainframe", false, 0, 0); err == nil || !strings.Contains(err.Error(), "-platform") {
		t.Errorf("unknown platform error not actionable: %v", err)
	}
}
