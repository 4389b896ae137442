package experiments

import (
	"reflect"
	"strings"
	"testing"

	"hetopt/internal/dna"
	"hetopt/internal/multi"
	"hetopt/internal/offload"
	"hetopt/internal/strategy"
)

func TestExtMultiDeviceScaling(t *testing.T) {
	s := testSuite(t)
	rows, err := s.ExtMultiDevice(offload.GenomeWorkload(dna.Human), 2, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	if rows[0].Devices != 1 || rows[1].Devices != 2 {
		t.Fatalf("device counts wrong: %+v", rows)
	}
	// A second accelerator must not hurt, and should help noticeably.
	if rows[1].E >= rows[0].E {
		t.Errorf("2 Phis (%.4f) should beat 1 Phi (%.4f)", rows[1].E, rows[0].E)
	}
	text := RenderMultiDevice(rows, offload.GenomeWorkload(dna.Human))
	if !strings.Contains(text, "speedup vs 1 phi") || !strings.Contains(text, "host") {
		t.Error("rendered multi-device table incomplete")
	}
	if RenderMultiDevice(nil, offload.GenomeWorkload(dna.Human)) == "" {
		t.Error("empty render should still emit a header")
	}
}

func TestExtMultiDeviceValidation(t *testing.T) {
	s := testSuite(t)
	if _, err := s.ExtMultiDevice(offload.GenomeWorkload(dna.Human), 0, 100); err == nil {
		t.Error("zero devices should fail")
	}
}

func TestExtDynamicScheduling(t *testing.T) {
	s := testSuite(t)
	rows, emE, err := s.ExtDynamicScheduling(offload.GenomeWorkload(dna.Human))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want 8 chunk sizes", len(rows))
	}
	if emE <= 0 {
		t.Fatal("EM reference missing")
	}
	// The sweep must expose both failure modes: tiny chunks pay
	// overhead, huge chunks lose balance; some middle chunk is
	// competitive with the static optimum (within 25%).
	bestMakespan := rows[0].Makespan
	for _, r := range rows {
		if r.Makespan < bestMakespan {
			bestMakespan = r.Makespan
		}
	}
	if bestMakespan > emE*1.25 {
		t.Errorf("best dynamic (%.4f) too far above static EM (%.4f)", bestMakespan, emE)
	}
	if rows[0].Makespan <= bestMakespan {
		t.Error("1 MB chunks should be worse than the best chunk size")
	}
	if rows[len(rows)-1].Makespan <= bestMakespan {
		t.Error("1 GB chunks should be worse than the best chunk size")
	}
	text := RenderDynamicScheduling(rows, emE, offload.GenomeWorkload(dna.Human))
	if !strings.Contains(text, "chunk [MB]") || !strings.Contains(text, "vs static EM") {
		t.Error("rendered dynamic table incomplete")
	}
}

// TestMultiProblemMatchesPaperOnDefaultSuite: the suite-derived
// multi-device problem reproduces multi.PaperProblem bit-identically on
// the default (paper) suite — the scenario generalization must not
// drift the paper's multi-accelerator table.
func TestMultiProblemMatchesPaperOnDefaultSuite(t *testing.T) {
	s := NewSuite()
	w := offload.GenomeWorkload(dna.Human)
	mine, err := s.multiProblem(2, w)
	if err != nil {
		t.Fatal(err)
	}
	paper, err := multi.PaperProblem(2, w)
	if err != nil {
		t.Fatal(err)
	}
	opt := strategy.Options{Budget: 300, Seed: 4, Restarts: 2}
	a, err := multi.Tune(mine, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := multi.Tune(paper, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("suite-derived multi problem diverges from PaperProblem:\n%+v\n%+v", a, b)
	}
}
