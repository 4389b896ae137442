package strategy

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// quadProblem is a separable toy problem with a known optimum:
// Energy = sum_i w[i]*(state[i]-target[i])^2 + base. It has no
// LowerBound, so the exact strategy solves it as a certified exhaustive
// enumeration. Initial and Neighbor are trivial: the exact strategy
// never calls them.
type quadProblem struct {
	levels []int
	target []int
	w      []float64
	base   float64
}

func (p *quadProblem) Dim() int                                { return len(p.levels) }
func (p *quadProblem) Levels(i int) int                        { return p.levels[i] }
func (p *quadProblem) Initial(dst []int, rng *rand.Rand)       { clear(dst) }
func (p *quadProblem) Neighbor(dst, src []int, rng *rand.Rand) { copy(dst, src) }
func (p *quadProblem) term(i, v int) float64 {
	d := float64(v - p.target[i])
	return p.w[i] * d * d
}
func (p *quadProblem) Energy(state []int) (float64, error) {
	e := p.base
	for i, v := range state {
		e += p.term(i, v)
	}
	return e, nil
}

// boundedQuad adds the admissible bound: fixed terms exactly, free
// terms at their per-dimension minimum (0 when the target is in range).
type boundedQuad struct{ *quadProblem }

func (p boundedQuad) LowerBound(prefix []int, fixed int) float64 {
	e := p.base
	for i := 0; i < fixed; i++ {
		e += p.term(i, prefix[i])
	}
	for i := fixed; i < len(p.levels); i++ {
		min := math.Inf(1)
		for v := 0; v < p.levels[i]; v++ {
			if t := p.term(i, v); t < min {
				min = t
			}
		}
		e += min
	}
	return e
}

// looseQuad derates the exact separable bound by a constant factor —
// still admissible (it only underestimates) and still monotone, but
// loose enough that budget-truncated runs report genuinely positive
// gaps instead of proving the optimum from the frontier bounds alone.
type looseQuad struct{ boundedQuad }

func (p looseQuad) LowerBound(prefix []int, fixed int) float64 {
	return 0.6 * p.boundedQuad.LowerBound(prefix, fixed)
}

func newQuad() *quadProblem {
	return &quadProblem{
		levels: []int{5, 3, 7, 4},
		target: []int{3, 1, 2, 0},
		w:      []float64{2, 5, 1, 3},
		base:   0.25,
	}
}

// newLooseQuad is a larger space, so small budgets genuinely truncate,
// with a base large relative to the per-step deviation cost, so the
// derated frontier bounds genuinely undercut the incumbent.
func newLooseQuad() looseQuad {
	return looseQuad{boundedQuad{&quadProblem{
		levels: []int{6, 5, 7, 4, 5},
		target: []int{4, 2, 5, 1, 3},
		w:      []float64{2, 5, 1, 3, 4},
		base:   10,
	}}}
}

// exactFingerprint renders every observable field of an exact run:
// Best, the BestEnergy bits, Evaluations, Worker/Workers, every
// Certificate field (float fields as bits) and the pool.
func exactFingerprint(res Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v|%016x|%d|%d/%d", res.Best, math.Float64bits(res.BestEnergy),
		res.Evaluations, res.Worker, res.Workers)
	if c, ok := res.Certificate(); ok {
		fmt.Fprintf(&b, "|cert %t %016x %016x %d %d", c.Optimal,
			math.Float64bits(c.LowerBound), math.Float64bits(c.Gap), c.Explored, c.Pruned)
	}
	for _, e := range res.PoolEntries() {
		fmt.Fprintf(&b, "|%v:%016x", e.State, math.Float64bits(e.Energy))
	}
	return b.String()
}

// TestExactPins pins the full output of the exact strategy — incumbent,
// effort, certificate and pool — on the quad fixtures at Parallelism 1
// and 4. The values were recorded before the branch-and-bound solver
// moved into this package; any change means the root split, the dive,
// the visit order, the pruning rule, the merge or the pool filter
// changed.
func TestExactPins(t *testing.T) {
	poolQuad := newQuad()
	poolQuad.base = 10
	runs := []struct {
		name string
		s    Exact
		p    Spaced
		opt  Options
	}{
		{"unbounded", Exact{}, newQuad(), Options{}},
		{"bounded-prove", Exact{Prove: true}, boundedQuad{newQuad()}, Options{}},
		{"loose-prove", Exact{Prove: true}, newLooseQuad(), Options{Budget: 1}},
		{"loose-budget-1", Exact{}, newLooseQuad(), Options{Budget: 1}},
		{"loose-budget-5", Exact{}, newLooseQuad(), Options{Budget: 5}},
		{"loose-budget-25", Exact{}, newLooseQuad(), Options{Budget: 25}},
		{"pool", Exact{Prove: true, PoolSize: 6, PoolGap: 0.9}, boundedQuad{poolQuad}, Options{}},
	}
	golden := map[string]string{
		"unbounded/1":       "[3 1 2 0]|3fd0000000000000|421|0/1|cert true 3fd0000000000000 0000000000000000 420 0",
		"unbounded/4":       "[3 1 2 0]|3fd0000000000000|421|0/1|cert true 3fd0000000000000 0000000000000000 420 0",
		"bounded-prove/1":   "[3 1 2 0]|3fd0000000000000|2|0/1|cert true 3fd0000000000000 0000000000000000 1 419",
		"bounded-prove/4":   "[3 1 2 0]|3fd0000000000000|2|0/1|cert true 3fd0000000000000 0000000000000000 1 419",
		"loose-prove/1":     "[4 2 5 1 3]|4024000000000000|47|0/1|cert true 4024000000000000 0000000000000000 46 4154",
		"loose-prove/4":     "[4 2 5 1 3]|4024000000000000|47|0/1|cert true 4024000000000000 0000000000000000 46 4154",
		"loose-budget-1/1":  "[4 2 5 1 3]|4024000000000000|6|0/1|cert false 401a666666666666 3fd5c28f5c28f5c3 5 3500",
		"loose-budget-1/4":  "[4 2 5 1 3]|4024000000000000|6|0/1|cert false 401a666666666666 3fd5c28f5c28f5c3 5 3500",
		"loose-budget-5/1":  "[4 2 5 1 3]|4024000000000000|22|0/1|cert false 401a666666666666 3fd5c28f5c28f5c3 21 3792",
		"loose-budget-5/4":  "[4 2 5 1 3]|4024000000000000|22|0/1|cert false 401a666666666666 3fd5c28f5c28f5c3 21 3792",
		"loose-budget-25/1": "[4 2 5 1 3]|4024000000000000|47|0/1|cert true 4024000000000000 0000000000000000 46 4154",
		"loose-budget-25/4": "[4 2 5 1 3]|4024000000000000|47|0/1|cert true 4024000000000000 0000000000000000 46 4154",
		"pool/1":            "[3 1 2 0]|4024000000000000|63|0/1|cert true 4024000000000000 0000000000000000 62 358|[3 1 2 0]:4024000000000000|[2 1 1 0]:402a000000000000|[2 1 3 0]:402a000000000000|[4 1 1 0]:402a000000000000|[4 1 3 0]:402a000000000000|[3 1 0 0]:402c000000000000",
		"pool/4":            "[3 1 2 0]|4024000000000000|63|0/1|cert true 4024000000000000 0000000000000000 62 358|[3 1 2 0]:4024000000000000|[2 1 1 0]:402a000000000000|[2 1 3 0]:402a000000000000|[4 1 1 0]:402a000000000000|[4 1 3 0]:402a000000000000|[3 1 0 0]:402c000000000000",
	}
	for _, r := range runs {
		for _, par := range []int{1, 4} {
			opt := r.opt
			opt.Parallelism = par
			res, err := r.s.Minimize(r.p, opt)
			if err != nil {
				t.Fatalf("%s/%d: %v", r.name, par, err)
			}
			key := fmt.Sprintf("%s/%d", r.name, par)
			if got := exactFingerprint(res); got != golden[key] {
				t.Errorf("%s diverged from the pin:\n got  %s\n want %s", key, got, golden[key])
			}
		}
	}
}

// quadSize is the state count of a quad fixture.
func quadSize(t *testing.T, p Spaced) int {
	t.Helper()
	n, ok := spaceSize(p)
	if !ok {
		t.Fatal("quad fixture is not a product space")
	}
	return n
}

// bruteForce enumerates the whole space, breaking energy ties by the
// lowest ordinal — the reference the solver must match exactly.
func bruteForce(t *testing.T, p Spaced) ([]int, float64) {
	t.Helper()
	dim := p.Dim()
	state := make([]int, dim)
	best := append([]int(nil), state...)
	bestE := math.Inf(1)
	var rec func(d int)
	rec = func(d int) {
		if d == dim {
			e, err := p.Energy(state)
			if err != nil {
				t.Fatal(err)
			}
			if e < bestE {
				bestE = e
				copy(best, state)
			}
			return
		}
		for v := 0; v < p.Levels(d); v++ {
			state[d] = v
			rec(d + 1)
		}
		state[d] = 0
	}
	rec(0)
	return best, bestE
}

// exactCert runs the exact strategy and returns its certificate, which
// every exact Result must carry.
func exactCert(t *testing.T, s Exact, p Spaced, opt Options) (Result, Certificate) {
	t.Helper()
	res, err := s.Minimize(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	c, ok := res.Certificate()
	if !ok {
		t.Fatal("exact result carries no certificate")
	}
	return res, c
}

func TestExactMatchesBruteForce(t *testing.T) {
	p := boundedQuad{newQuad()}
	wantState, wantE := bruteForce(t, p)
	res, c := exactCert(t, Exact{Prove: true}, p, Options{})
	if res.BestEnergy != wantE || !reflect.DeepEqual(res.Best, wantState) {
		t.Fatalf("Exact = %v (%g), brute force = %v (%g)", res.Best, res.BestEnergy, wantState, wantE)
	}
	if !c.Optimal || c.Gap != 0 || c.LowerBound != wantE {
		t.Fatalf("certificate not optimal: %+v", c)
	}
	size := quadSize(t, p)
	if c.Explored+c.Pruned != size {
		t.Fatalf("Explored+Pruned = %d+%d, want space size %d", c.Explored, c.Pruned, size)
	}
	if c.Explored >= size {
		t.Fatalf("no pruning: explored %d of %d", c.Explored, size)
	}
	if c.Pruned == 0 {
		t.Fatal("expected pruned subtrees")
	}
}

func TestExactUnboundedIsCertifiedExhaustive(t *testing.T) {
	p := newQuad() // no LowerBound method
	wantState, wantE := bruteForce(t, p)
	res, c := exactCert(t, Exact{Prove: true}, p, Options{})
	if res.BestEnergy != wantE || !reflect.DeepEqual(res.Best, wantState) {
		t.Fatalf("Exact = %v (%g), brute force = %v (%g)", res.Best, res.BestEnergy, wantState, wantE)
	}
	if !c.Optimal || c.Pruned != 0 || c.Explored != quadSize(t, p) {
		t.Fatalf("unbounded solve should exhaust without pruning: %+v", c)
	}
}

// TestExactTieBreakMatchesOrdinal pins the exhaustive-equivalent
// tie-break: among equal-energy optima the lowest state ordinal wins,
// regardless of the bound-driven visit order.
func TestExactTieBreakMatchesOrdinal(t *testing.T) {
	// Flat plateau: every state has the same energy.
	p := &quadProblem{levels: []int{3, 3, 3}, target: []int{0, 0, 0}, w: []float64{0, 0, 0}, base: 1}
	res, c := exactCert(t, Exact{Prove: true}, boundedQuad{p}, Options{})
	if !reflect.DeepEqual(res.Best, []int{0, 0, 0}) {
		t.Fatalf("tie-break picked %v, want the lowest ordinal [0 0 0]", res.Best)
	}
	if !c.Optimal {
		t.Fatalf("plateau not proven: %+v", c)
	}
}

func TestExactDeterministicAcrossParallelism(t *testing.T) {
	p := boundedQuad{newQuad()}
	s := Exact{Prove: true, PoolSize: 4}
	base, err := s.Minimize(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4, 8} {
		res, err := s.Minimize(p, Options{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, base) {
			t.Fatalf("parallelism %d: result differs\n got %+v\nwant %+v", par, res, base)
		}
	}
}

func TestExactPoolDiversityInvariant(t *testing.T) {
	// A large base widens the relative gap window so the pool has real
	// candidates to filter for diversity.
	q := newQuad()
	q.base = 10
	p := boundedQuad{q}
	res, _ := exactCert(t, Exact{Prove: true, PoolSize: 6, PoolGap: 0.9}, p, Options{})
	if len(res.Pool) < 2 {
		t.Fatalf("pool too small to test diversity: %d entries", len(res.Pool))
	}
	if !reflect.DeepEqual(res.Pool[0].State, res.Best) || res.Pool[0].Energy != res.BestEnergy {
		t.Fatalf("pool[0] = %+v, want the optimum %v (%g)", res.Pool[0], res.Best, res.BestEnergy)
	}
	thresh := res.BestEnergy + 0.9*math.Abs(res.BestEnergy)
	for i, a := range res.Pool {
		if a.Energy > thresh {
			t.Fatalf("pool[%d] energy %g above gap threshold %g", i, a.Energy, thresh)
		}
		if e, err := p.Energy(a.State); err != nil || e != a.Energy {
			t.Fatalf("pool[%d] energy mismatch: recorded %g, evaluated %g", i, a.Energy, e)
		}
		for j, b := range res.Pool[i+1:] {
			if d := l1(a.State, b.State); d < minDiversity {
				t.Fatalf("pool[%d] and pool[%d] only L1=%d apart, want >= %d", i, i+1+j, d, minDiversity)
			}
		}
	}
	for i := 1; i < len(res.Pool); i++ {
		if res.Pool[i].Energy < res.Pool[i-1].Energy {
			t.Fatalf("pool not sorted by energy: %g before %g", res.Pool[i-1].Energy, res.Pool[i].Energy)
		}
	}
}

// TestExactBudgetGapMonotonicity: growing the budget extends the same
// deterministic traversal, so the incumbent never worsens, the frontier
// bound never loosens, and the certified gap never grows.
func TestExactBudgetGapMonotonicity(t *testing.T) {
	p := newLooseQuad()
	prevGap := math.Inf(1)
	prevE := math.Inf(1)
	prevLB := math.Inf(-1)
	positiveGapSeen := false
	for _, budget := range []int{1, 2, 5, 10, 25, 100, 100000} {
		res, c := exactCert(t, Exact{}, p, Options{Budget: budget})
		if !c.Optimal && c.Gap > 0 {
			positiveGapSeen = true
		}
		if res.BestEnergy > prevE {
			t.Fatalf("budget %d: incumbent worsened %g -> %g", budget, prevE, res.BestEnergy)
		}
		if c.LowerBound < prevLB {
			t.Fatalf("budget %d: lower bound loosened %g -> %g", budget, prevLB, c.LowerBound)
		}
		if c.Gap > prevGap {
			t.Fatalf("budget %d: gap grew %g -> %g", budget, prevGap, c.Gap)
		}
		if c.LowerBound > res.BestEnergy {
			t.Fatalf("budget %d: lower bound %g above incumbent %g", budget, c.LowerBound, res.BestEnergy)
		}
		prevGap, prevE, prevLB = c.Gap, res.BestEnergy, c.LowerBound
	}
	if !positiveGapSeen {
		t.Fatal("no budget produced a positive gap; the monotonicity sweep tested nothing")
	}
	// The generous budget must prove optimality with a zero gap.
	if prevGap != 0 {
		t.Fatalf("final gap %g, want proven 0", prevGap)
	}
}

func TestExactPruningSoundUnderPoolGap(t *testing.T) {
	p := boundedQuad{newQuad()}
	_, wantE := bruteForce(t, p)
	res, _ := exactCert(t, Exact{Prove: true, PoolSize: 8, PoolGap: 0.5}, p, Options{})
	if res.BestEnergy != wantE {
		t.Fatalf("pool-widened solve lost the optimum: %g, want %g", res.BestEnergy, wantE)
	}
}

func TestExactValidation(t *testing.T) {
	if _, err := (Exact{}).Minimize(&quadProblem{}, Options{}); err == nil {
		t.Fatal("zero-dimension problem accepted")
	}
	if _, err := (Exact{}).Minimize(&quadProblem{levels: []int{3, 0}, target: []int{0, 0}, w: []float64{1, 1}}, Options{}); err == nil {
		t.Fatal("zero-level dimension accepted")
	}
}
