// Package graph generalizes the workload abstraction from "one divisible
// kernel split by a fraction" to a DAG of operators with data-transfer
// edges placed across host and device — the task-graph problem shape of
// QuickP-style operator placement and of heterogeneous task scheduling
// (see DESIGN.md, "The graph layer").
//
// A graph workload has nodes carrying per-unit compute cost (in MB of
// the reference streaming workload, so the existing perf roofline model
// prices them) and edges carrying transfer volume (priced by the
// platform's host-device link). A deterministic list-scheduling
// simulator turns a placement vector — one host/device bit per node —
// into a makespan, and PlacementProblem exposes makespan minimization
// on the strategy layer (Spaced, so every registered strategy including
// exhaustive enumeration and the portfolio applies unchanged).
package graph

import (
	"fmt"
	"strings"

	"hetopt/internal/perf"
)

// MaxNodes bounds the node count of a graph workload. The bound lets
// the simulator run on fixed-size stack arrays — the makespan hot path
// allocates nothing — and keeps exhaustive placement enumeration (2^n
// states) feasible for every preset.
const MaxNodes = 32

// Node is one operator of a graph workload.
type Node struct {
	// Name identifies the operator in placements and reports.
	Name string
	// WorkMB is the operator's compute cost, expressed in megabytes of
	// the reference streaming workload: a node with WorkMB w runs as
	// long as w MB of the reference kernel on the same side, so the
	// perf roofline model prices it without new calibration constants.
	WorkMB float64
}

// Edge is a data dependency between two operators.
type Edge struct {
	// From and To are node indices. Edges must point forward
	// (From < To), which both guarantees acyclicity and makes the node
	// order a topological order.
	From, To int
	// TransferMB is the volume moved when the endpoints run on
	// different sides; same-side edges cost nothing.
	TransferMB float64
}

// Workload is a DAG of operators with data-transfer edges, plus the
// perf.Traits-style parameters that shape node execution time on each
// side (the same knobs workload families carry for divisible kernels).
type Workload struct {
	// Name identifies the graph ("resnet-ish", ...).
	Name string
	// Description is a one-line summary for catalogs.
	Description string
	// Nodes are the operators in topological order.
	Nodes []Node
	// Edges are the data dependencies; every edge points forward.
	Edges []Edge
	// Complexity, BytesPerByte, HostRateFactor and DeviceRateFactor
	// scale node execution exactly like the divisible families' traits
	// (zero means the reference value).
	Complexity       float64
	BytesPerByte     float64
	HostRateFactor   float64
	DeviceRateFactor float64
}

// Validate checks the graph's structural sanity: named nodes with
// positive work, at most MaxNodes of them, and forward edges with
// non-negative transfer volumes.
func (w Workload) Validate() error {
	if strings.TrimSpace(w.Name) == "" {
		return fmt.Errorf("graph: workload needs a name")
	}
	if len(w.Nodes) == 0 {
		return fmt.Errorf("graph: workload %q has no nodes", w.Name)
	}
	if len(w.Nodes) > MaxNodes {
		return fmt.Errorf("graph: workload %q has %d nodes (max %d)", w.Name, len(w.Nodes), MaxNodes)
	}
	seen := map[string]bool{}
	for i, n := range w.Nodes {
		if strings.TrimSpace(n.Name) == "" {
			return fmt.Errorf("graph: workload %q node %d is unnamed", w.Name, i)
		}
		if n.WorkMB <= 0 {
			return fmt.Errorf("graph: workload %q node %q work %g must be positive", w.Name, n.Name, n.WorkMB)
		}
		key := strings.ToLower(n.Name)
		if seen[key] {
			return fmt.Errorf("graph: workload %q has duplicate node %q", w.Name, n.Name)
		}
		seen[key] = true
	}
	for _, e := range w.Edges {
		if e.From < 0 || e.To >= len(w.Nodes) || e.From >= e.To {
			return fmt.Errorf("graph: workload %q edge %d->%d must point forward within [0,%d)",
				w.Name, e.From, e.To, len(w.Nodes))
		}
		if e.TransferMB < 0 {
			return fmt.Errorf("graph: workload %q edge %d->%d has negative transfer %g",
				w.Name, e.From, e.To, e.TransferMB)
		}
	}
	return nil
}

// TotalWorkMB sums the node compute costs — the graph's total input
// size in reference-workload megabytes.
func (w Workload) TotalWorkMB() float64 {
	total := 0.0
	for _, n := range w.Nodes {
		total += n.WorkMB
	}
	return total
}

// Traits returns the workload's perf traits, the parameters the
// roofline model prices node execution with.
func (w Workload) Traits() perf.Traits {
	return perf.Traits{
		Name:             w.Name,
		Complexity:       w.Complexity,
		BytesPerByte:     w.BytesPerByte,
		HostRateFactor:   w.HostRateFactor,
		DeviceRateFactor: w.DeviceRateFactor,
	}
}

// ResNetIsh is an inference-chain graph: a convolutional stem, four
// residual blocks (two convolutions plus a skip edge each) with
// activation volumes shrinking as channels deepen, and a pooling/FC
// head. The long dependency chain makes the host/device boundary — and
// the transfers it induces — the interesting placement decision.
func ResNetIsh() Workload {
	return Workload{
		Name:        "resnet-ish",
		Description: "inference chain: stem, four residual blocks with skip edges, pooled head",
		Nodes: []Node{
			{Name: "stem", WorkMB: 180},
			{Name: "b1-conv1", WorkMB: 240}, {Name: "b1-conv2", WorkMB: 240},
			{Name: "b2-conv1", WorkMB: 320}, {Name: "b2-conv2", WorkMB: 320},
			{Name: "b3-conv1", WorkMB: 420}, {Name: "b3-conv2", WorkMB: 420},
			{Name: "b4-conv1", WorkMB: 520}, {Name: "b4-conv2", WorkMB: 520},
			{Name: "pool", WorkMB: 60}, {Name: "fc", WorkMB: 90},
		},
		Edges: []Edge{
			{From: 0, To: 1, TransferMB: 64},
			{From: 1, To: 2, TransferMB: 64}, {From: 0, To: 2, TransferMB: 64},
			{From: 2, To: 3, TransferMB: 48},
			{From: 3, To: 4, TransferMB: 48}, {From: 2, To: 4, TransferMB: 48},
			{From: 4, To: 5, TransferMB: 32},
			{From: 5, To: 6, TransferMB: 32}, {From: 4, To: 6, TransferMB: 32},
			{From: 6, To: 7, TransferMB: 24},
			{From: 7, To: 8, TransferMB: 24}, {From: 6, To: 8, TransferMB: 24},
			{From: 8, To: 9, TransferMB: 16},
			{From: 9, To: 10, TransferMB: 4},
		},
		// Convolutions are compute-dense and vectorize well on the
		// throughput-oriented side.
		Complexity:       1.1,
		HostRateFactor:   0.95,
		DeviceRateFactor: 1.25,
	}
}

// ForkJoin is a stencil pipeline: a decomposition fans out into four
// independent tiles, a halo exchange joins them, a second sweep fans
// out again, and a reduction gathers the result. The parallel branches
// are what a two-processor placement can genuinely overlap.
func ForkJoin() Workload {
	return Workload{
		Name:        "fork-join",
		Description: "stencil pipeline: two fan-out/fan-in sweeps of four tiles around a halo exchange",
		Nodes: []Node{
			{Name: "decompose", WorkMB: 120},
			{Name: "tile-a", WorkMB: 550}, {Name: "tile-b", WorkMB: 550},
			{Name: "tile-c", WorkMB: 550}, {Name: "tile-d", WorkMB: 550},
			{Name: "halo", WorkMB: 90},
			{Name: "tile-a2", WorkMB: 480}, {Name: "tile-b2", WorkMB: 480},
			{Name: "tile-c2", WorkMB: 480}, {Name: "tile-d2", WorkMB: 480},
			{Name: "reduce", WorkMB: 70},
		},
		Edges: []Edge{
			{From: 0, To: 1, TransferMB: 96}, {From: 0, To: 2, TransferMB: 96},
			{From: 0, To: 3, TransferMB: 96}, {From: 0, To: 4, TransferMB: 96},
			{From: 1, To: 5, TransferMB: 96}, {From: 2, To: 5, TransferMB: 96},
			{From: 3, To: 5, TransferMB: 96}, {From: 4, To: 5, TransferMB: 96},
			{From: 5, To: 6, TransferMB: 72}, {From: 5, To: 7, TransferMB: 72},
			{From: 5, To: 8, TransferMB: 72}, {From: 5, To: 9, TransferMB: 72},
			{From: 6, To: 10, TransferMB: 72}, {From: 7, To: 10, TransferMB: 72},
			{From: 8, To: 10, TransferMB: 72}, {From: 9, To: 10, TransferMB: 72},
		},
		// Stencil sweeps stream several bytes per input byte and sit
		// near the bandwidth roofline on both sides.
		BytesPerByte:     2.4,
		HostRateFactor:   1.1,
		DeviceRateFactor: 1.15,
	}
}

// SparseSolver is a direct-solver phase graph: reorder, symbolic and
// numeric factorization, then solve/refine rounds that all reuse the
// factors. The factor-reuse edges make "where the factorization lives"
// the dominant placement decision.
func SparseSolver() Workload {
	return Workload{
		Name:        "sparse-solver",
		Description: "direct-solver phases: reorder, factorize, and factor-reusing solve/refine rounds",
		Nodes: []Node{
			{Name: "reorder", WorkMB: 150},
			{Name: "symbolic", WorkMB: 300},
			{Name: "numeric", WorkMB: 700},
			{Name: "solve-1", WorkMB: 260}, {Name: "refine-1", WorkMB: 140},
			{Name: "solve-2", WorkMB: 260}, {Name: "refine-2", WorkMB: 140},
			{Name: "norm", WorkMB: 40},
			{Name: "solve-3", WorkMB: 260},
			{Name: "gather", WorkMB: 60},
		},
		Edges: []Edge{
			{From: 0, To: 1, TransferMB: 40},
			{From: 1, To: 2, TransferMB: 110},
			{From: 2, To: 3, TransferMB: 130},
			// Each refine polishes the previous solve's result while the
			// next factor-reusing solve proceeds — the overlap a
			// two-processor placement can exploit.
			{From: 3, To: 4, TransferMB: 30},
			{From: 3, To: 5, TransferMB: 30}, {From: 2, To: 5, TransferMB: 130},
			{From: 5, To: 6, TransferMB: 30},
			{From: 4, To: 7, TransferMB: 10}, {From: 6, To: 7, TransferMB: 10},
			{From: 5, To: 8, TransferMB: 30}, {From: 2, To: 8, TransferMB: 130},
			{From: 7, To: 8, TransferMB: 10},
			{From: 8, To: 9, TransferMB: 30},
		},
		// Irregular accesses: bandwidth-bound and a poor fit for the
		// wide device, like the SpMV family.
		Complexity:       1.3,
		BytesPerByte:     3.2,
		HostRateFactor:   0.85,
		DeviceRateFactor: 0.55,
	}
}

// Presets returns the shipped graph workloads in catalog order.
func Presets() []Workload {
	return []Workload{ResNetIsh(), ForkJoin(), SparseSolver()}
}
