package strategy

import (
	"fmt"
	"math"
	"sort"

	"hetopt/internal/search"
)

// Exact is a deterministic branch-and-bound search: the only strategy
// that returns a provable answer rather than a heuristic one. It
// requires Spaced. Besides the best state, its Result carries a
// Certificate stating either that the best state is the true optimum
// (the tree was exhausted) or how far it can possibly be from it (an
// admissible lower bound on everything left unexplored), and on request
// a pool of provably-good, mutually diverse alternate states in the
// Gurobi PoolSearchMode/PoolSolutions/PoolGap idiom.
//
// The tree fixes one dimension per level; a node at depth d is the set
// of all states agreeing with prefix[:d]. Problems that implement
// Bounded are pruned: subtrees whose bound already exceeds the
// incumbent are discarded without evaluation (internal/core derives
// bounds from the roofline performance model, internal/graph from DAG
// critical paths). Problems without bounds are solved as a certified
// exhaustive enumeration.
//
// Options.Budget caps energy evaluations per subtree root (the
// deterministic unit of work, mirroring the per-chain/per-restart
// budget of the heuristics); Prove lifts the cap. Options.Parallelism
// caps the roots solved concurrently. Options.Seed and Options.Restarts
// are ignored: the search draws no randomness and its decomposition is
// fixed.
//
// Determinism contract: the Result, certificate counts and pool
// included, is bit-identical at every Parallelism. The tree is split at
// a fixed depth (a pure function of the space shape) into independent
// subtree roots; each root runs sequentially, seeded with the same
// greedy-dive incumbent, and root results merge in root order by
// (energy, state ordinal), never by completion order.
type Exact struct {
	// Prove ignores the budget and always exhausts the tree.
	Prove bool
	// PoolSize, when positive, collects up to that many mutually
	// diverse states within PoolGap of the optimum (the best state is
	// always pool entry 0).
	PoolSize int
	// PoolGap is the relative gap defining "provably good": candidates
	// with energy <= best + PoolGap*|best| are pool-eligible, and
	// subtrees are only pruned against that widened threshold so
	// alternates survive. Zero selects DefaultPoolGap when PoolSize is
	// set; it is ignored otherwise.
	PoolGap float64
}

// Bounded is optionally implemented by problems that can bound partial
// assignments. LowerBound must return an admissible (never
// overestimating) lower bound on Energy over every state that agrees
// with prefix[:fixed]; entries at and beyond fixed are undefined and
// must not be read. Bounds must be monotone: fixing one more dimension
// never lowers the bound. LowerBound must be pure and safe for
// concurrent use.
type Bounded interface {
	Spaced
	LowerBound(prefix []int, fixed int) float64
}

// Pool-knob defaults, mirroring the Gurobi solution-pool parameters the
// serving layer exposes.
const (
	// DefaultPoolGap keeps pool candidates within 10% of the incumbent
	// when PoolGap is left zero.
	DefaultPoolGap = 0.10
	// MaxPoolSize bounds PoolSize for callers that validate external
	// input (the serving layer rejects larger requests).
	MaxPoolSize = 64
)

// minDiversity is the minimum pairwise L1 index distance between kept
// pool entries. 1 would only mean "distinct"; 2 forces genuinely
// different assignments.
const minDiversity = 2

// rootTarget is the minimum number of independent subtree roots the
// tree is split into (capped by the space size). It is a constant so
// the split, and therefore every count in the Certificate, is a pure
// function of the space shape, not of Parallelism.
const rootTarget = 16

// Certificate is the provable part of an exact Result.
type Certificate struct {
	// Optimal reports that the tree was exhausted: BestEnergy is the
	// true minimum over the whole space (ties broken by lowest state
	// ordinal, matching exhaustive enumeration).
	Optimal bool
	// LowerBound is an admissible lower bound on the true optimum. It
	// equals BestEnergy when Optimal; when the budget truncated the
	// search it is min(BestEnergy, bounds of the unexplored frontier).
	LowerBound float64
	// Gap is the relative optimality gap (BestEnergy-LowerBound)/
	// |BestEnergy|: 0 when proven, +Inf when nothing is known about
	// the frontier (an unbounded problem truncated mid-search).
	Gap float64
	// Explored counts states whose energy was evaluated inside the
	// tree; Pruned counts states eliminated by admissible bounds
	// without evaluation. For a proven solve Explored+Pruned equals the
	// space size; Explored < size is the proof that pruning is real.
	Explored int
	Pruned   int
}

// PoolEntry is one member of the diverse near-optimal solution pool.
type PoolEntry struct {
	// State is the index vector; Energy its evaluated energy.
	State  []int
	Energy float64
}

// Name implements Strategy.
func (Exact) Name() string { return "exact" }

// Minimize implements Strategy. The Result's Evaluations include the
// initial greedy dive (Certificate.Explored counts tree states only);
// its Pool is sorted by (energy, ordinal) and empty unless PoolSize is
// set.
func (e Exact) Minimize(p Problem, opt Options) (Result, error) {
	sp, err := spacedOrErr("exact", p)
	if err != nil {
		return Result{}, err
	}
	s, err := e.newSolver(sp, opt)
	if err != nil {
		return Result{}, err
	}
	if err := s.dive(); err != nil {
		return Result{}, err
	}

	// Split the tree at the smallest depth whose prefix count reaches
	// rootTarget (a pure function of the space shape).
	depth, roots := 0, 1
	target := min(rootTarget, s.size)
	for depth < s.dim && roots < target {
		roots *= s.levels[depth]
		depth++
	}

	outs := make([]*rootState, roots)
	err = search.ForEach(roots, opt.Parallelism, func(r int) error {
		rs := s.newRootState()
		// Decode root r into prefix[:depth], most-significant first.
		x := r
		for d := depth - 1; d >= 0; d-- {
			rs.prefix[d] = x % s.levels[d]
			x /= s.levels[d]
		}
		outs[r] = rs
		if depth == s.dim {
			// Degenerate split: each root is a single leaf.
			return s.visitLeaf(rs, s.rootBound(rs, depth))
		}
		return s.expand(rs, depth)
	})
	if err != nil {
		return Result{}, err
	}
	return s.merge(outs), nil
}

// solver holds the per-run immutable shape shared by all roots.
type solver struct {
	p      Spaced
	b      Bounded // nil when p has no admissible bounds
	dim    int
	levels []int
	// suffix[i] is the number of states below a depth-i node
	// (prod levels[i:]); suffix[dim] = 1. The ordinal of a state is
	// sum state[i]*suffix[i+1], matching space.Space flattening.
	suffix   []int
	size     int
	budget   int     // per-root evaluation cap; -1 = unlimited (Prove)
	poolSize int     // 0 when no pool was requested
	gap      float64 // effective pool gap (0 when no pool)
	poolCap  int     // per-root candidate buffer cap
	// dive incumbent shared read-only by every root.
	diveState []int
	diveE     float64
	diveOrd   int
}

// candidate is an internal pool candidate with its ordinal for
// deterministic ordering.
type candidate struct {
	e     float64
	ord   int
	state []int
}

// rootState is the mutable per-root search state.
type rootState struct {
	s       *solver
	prefix  []int
	scratch [][]childRef // per-depth child buffers
	bestE   float64
	bestOrd int
	best    []int
	evals   int
	pruned  int // states eliminated by bounds
	budget  int // remaining leaf evaluations; -1 = unlimited
	trunc   bool
	// frontier is the minimum bound over subtrees left unexplored by
	// budget truncation (+Inf when none).
	frontier float64
	pool     []candidate
}

type childRef struct {
	v     int
	bound float64
}

func (e Exact) newSolver(p Spaced, opt Options) (*solver, error) {
	dim := p.Dim()
	if dim <= 0 {
		return nil, fmt.Errorf("strategy: exact: problem has no dimensions (Dim=%d)", dim)
	}
	levels := make([]int, dim)
	suffix := make([]int, dim+1)
	suffix[dim] = 1
	for i := dim - 1; i >= 0; i-- {
		n := p.Levels(i)
		if n <= 0 {
			return nil, fmt.Errorf("strategy: exact: dimension %d has no levels (%d)", i, n)
		}
		levels[i] = n
		if int64(suffix[i+1]) > math.MaxInt64/int64(n) {
			return nil, fmt.Errorf("strategy: exact: space size overflows")
		}
		suffix[i] = suffix[i+1] * n
	}
	s := &solver{p: p, dim: dim, levels: levels, suffix: suffix, size: suffix[0], budget: opt.budget()}
	if e.Prove {
		s.budget = -1
	}
	if b, ok := p.(Bounded); ok {
		s.b = b
	}
	if e.PoolSize > 0 {
		s.poolSize = e.PoolSize
		s.gap = e.PoolGap
		if s.gap <= 0 {
			s.gap = DefaultPoolGap
		}
		s.poolCap = max(4*e.PoolSize, 64)
	}
	return s, nil
}

// dive establishes the shared initial incumbent: a single greedy descent
// taking the minimum-bound child at every level (ties to the lowest
// index; index 0 throughout when the problem is unbounded).
func (s *solver) dive() error {
	state := make([]int, s.dim)
	for d := 0; d < s.dim; d++ {
		bestV := 0
		if s.b != nil && s.levels[d] > 1 {
			bestBd := math.Inf(1)
			for v := 0; v < s.levels[d]; v++ {
				state[d] = v
				if bd := s.b.LowerBound(state, d+1); bd < bestBd {
					bestBd, bestV = bd, v
				}
			}
		}
		state[d] = bestV
	}
	e, err := s.p.Energy(state)
	if err != nil {
		return err
	}
	s.diveState = state
	s.diveE = sanitize(e)
	s.diveOrd = s.ordinal(state)
	return nil
}

func (s *solver) ordinal(state []int) int {
	ord := 0
	for i, v := range state {
		ord += v * s.suffix[i+1]
	}
	return ord
}

func (s *solver) newRootState() *rootState {
	rs := &rootState{
		s:        s,
		prefix:   make([]int, s.dim),
		scratch:  make([][]childRef, s.dim),
		bestE:    s.diveE,
		bestOrd:  s.diveOrd,
		best:     append([]int(nil), s.diveState...),
		frontier: math.Inf(1),
		budget:   s.budget,
	}
	for d := 0; d < s.dim; d++ {
		rs.scratch[d] = make([]childRef, 0, s.levels[d])
	}
	return rs
}

// thresh is the pruning threshold: the incumbent, widened by the pool
// gap so provably-good alternates stay explorable. Pruning is strict
// (bound > thresh), so every state tying the optimum is still evaluated
// and the (energy, ordinal) winner matches exhaustive enumeration.
func (rs *rootState) thresh() float64 {
	if rs.s.gap <= 0 {
		return rs.bestE
	}
	return rs.bestE + rs.s.gap*math.Abs(rs.bestE)
}

// rootBound bounds the root's own subtree (used only for the degenerate
// single-leaf-root split).
func (s *solver) rootBound(rs *rootState, fixed int) float64 {
	if s.b == nil {
		return math.Inf(-1)
	}
	return s.b.LowerBound(rs.prefix, fixed)
}

// expand enumerates dimension `fixed` of the node prefix[:fixed],
// bounding every child, then visiting them in (bound, index) order so
// the most promising subtree tightens the incumbent first.
func (s *solver) expand(rs *rootState, fixed int) error {
	ch := rs.scratch[fixed][:0]
	for v := 0; v < s.levels[fixed]; v++ {
		bd := math.Inf(-1)
		if s.b != nil {
			rs.prefix[fixed] = v
			bd = s.b.LowerBound(rs.prefix, fixed+1)
			if math.IsNaN(bd) {
				bd = math.Inf(-1)
			}
		}
		ch = append(ch, childRef{v: v, bound: bd})
	}
	sort.Slice(ch, func(i, j int) bool {
		if ch[i].bound != ch[j].bound {
			return ch[i].bound < ch[j].bound
		}
		return ch[i].v < ch[j].v
	})
	below := s.suffix[fixed+1]
	for i, c := range ch {
		if rs.trunc || rs.budget == 0 {
			// Out of budget: everything left becomes the unexplored
			// frontier, priced by its admissible bound.
			rs.trunc = true
			if c.bound < rs.frontier {
				rs.frontier = c.bound
			}
			continue
		}
		if c.bound > rs.thresh() {
			// Children are bound-sorted and the threshold only ever
			// tightens: every remaining sibling prunes too.
			rs.pruned += (len(ch) - i) * below
			break
		}
		rs.prefix[fixed] = c.v
		var err error
		if fixed+1 == s.dim {
			err = s.visitLeaf(rs, c.bound)
		} else {
			err = s.expand(rs, fixed+1)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// visitLeaf evaluates the complete state in prefix.
func (s *solver) visitLeaf(rs *rootState, bound float64) error {
	if rs.trunc || rs.budget == 0 {
		rs.trunc = true
		if bound < rs.frontier {
			rs.frontier = bound
		}
		return nil
	}
	if bound > rs.thresh() {
		rs.pruned++
		return nil
	}
	e, err := s.p.Energy(rs.prefix)
	if err != nil {
		return err
	}
	e = sanitize(e)
	rs.evals++
	if rs.budget > 0 {
		rs.budget--
	}
	ord := s.ordinal(rs.prefix)
	if e < rs.bestE || (e == rs.bestE && ord < rs.bestOrd) {
		rs.bestE, rs.bestOrd = e, ord
		rs.best = append(rs.best[:0], rs.prefix...)
	}
	if s.poolSize > 0 && e <= rs.thresh() {
		rs.pool = append(rs.pool, candidate{e: e, ord: ord, state: append([]int(nil), rs.prefix...)})
		if len(rs.pool) > 2*s.poolCap {
			sortCandidates(rs.pool)
			rs.pool = rs.pool[:s.poolCap]
		}
	}
	return nil
}

func sortCandidates(cs []candidate) {
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].e != cs[j].e {
			return cs[i].e < cs[j].e
		}
		return cs[i].ord < cs[j].ord
	})
}

// merge folds the per-root results, in root order, into the final
// Result with its certificate and diversity-filtered pool.
func (s *solver) merge(outs []*rootState) Result {
	res := Result{
		Best:        append([]int(nil), s.diveState...),
		BestEnergy:  s.diveE,
		Evaluations: 1, // the dive
		Workers:     1,
	}
	cert := &Certificate{Optimal: true}
	bestOrd := s.diveOrd
	frontier := math.Inf(1)
	var cands []candidate
	for _, rs := range outs {
		res.Evaluations += rs.evals
		cert.Explored += rs.evals
		cert.Pruned += rs.pruned
		if rs.trunc {
			cert.Optimal = false
			if rs.frontier < frontier {
				frontier = rs.frontier
			}
		}
		if rs.bestE < res.BestEnergy || (rs.bestE == res.BestEnergy && rs.bestOrd < bestOrd) {
			res.BestEnergy, bestOrd = rs.bestE, rs.bestOrd
			res.Best = append(res.Best[:0], rs.best...)
		}
		cands = append(cands, rs.pool...)
	}
	cert.LowerBound = res.BestEnergy
	if !cert.Optimal {
		if frontier < cert.LowerBound {
			cert.LowerBound = frontier
		}
		cert.Gap = relativeGap(res.BestEnergy, cert.LowerBound)
	}
	res.Cert = cert
	if s.poolSize > 0 {
		res.Pool = s.selectPool(cands, res.BestEnergy)
	}
	return res
}

// relativeGap is the Gurobi-style MIP gap (best-bound)/|best|.
func relativeGap(best, lb float64) float64 {
	switch {
	case lb >= best:
		return 0
	case best == 0 || math.IsInf(best, 1):
		return math.Inf(1)
	}
	return (best - lb) / math.Abs(best)
}

// selectPool applies the final gap filter and the greedy diversity
// sweep: candidates in (energy, ordinal) order are kept only when at
// least minDiversity away (L1 index distance) from everything already
// kept, so the pool spans genuinely different assignments.
func (s *solver) selectPool(cands []candidate, bestE float64) []PoolEntry {
	thresh := bestE + s.gap*math.Abs(bestE)
	sortCandidates(cands)
	pool := make([]PoolEntry, 0, s.poolSize)
	for _, c := range cands {
		if len(pool) == s.poolSize || c.e > thresh {
			break
		}
		diverse := true
		for _, k := range pool {
			if l1(c.state, k.State) < minDiversity {
				diverse = false
				break
			}
		}
		if diverse {
			pool = append(pool, PoolEntry{State: c.state, Energy: c.e})
		}
	}
	return pool
}

// l1 is the L1 distance between two index vectors.
func l1(a, b []int) int {
	d := 0
	for i := range a {
		if a[i] > b[i] {
			d += a[i] - b[i]
		} else {
			d += b[i] - a[i]
		}
	}
	return d
}
