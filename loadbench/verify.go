package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"time"

	"hetopt/internal/serve"
)

// checker verifies every answer the service gives. Each key's answer
// must be a terminal done status whose result is byte-identical to a
// direct computation of the same canonical request; a warm or forwarded
// hit must be byte-identical to the warm body that result implies.
type checker struct {
	env      *refEnv
	nodes    []*node
	workers  int
	exp      map[string]*expected // by store key
	expWarm  map[*item][]byte     // single items: the warm body they must answer with
	computed []computedJob        // jobs the service paid for, in answer order
	failed   map[*window]int
	problems []string
}

// computedJob is one answer the service computed rather than replayed.
type computedJob struct {
	m      member
	owner  int
	window *window
}

func newChecker(env *refEnv, nodes []*node, workers int) *checker {
	return &checker{env: env, nodes: nodes, workers: workers, exp: map[string]*expected{}, expWarm: map[*item][]byte{}, failed: map[*window]int{}}
}

func (ck *checker) problem(format string, args ...any) {
	if len(ck.problems) < 20 {
		ck.problems = append(ck.problems, fmt.Sprintf(format, args...))
	}
}

// expectMembers computes the direct answer of every member not known
// yet.
func (ck *checker) expectMembers(ms []member) error {
	var todo []member
	seen := map[string]bool{}
	for _, m := range ms {
		if ck.exp[m.key] == nil && !seen[m.key] {
			seen[m.key] = true
			todo = append(todo, m)
		}
	}
	exps, err := ck.env.expect(todo, ck.workers)
	if err != nil {
		return err
	}
	for i, m := range todo {
		ck.exp[m.key] = exps[i]
	}
	return nil
}

// prepare computes the expected answers of a workload's universe and,
// on warm-hits, has the service compute every canonical request once.
// Then the workload's traffic runs for a warm-up period, so the window
// starts with the stores' LRU order, the Go runtime's heap and the
// connections already shaped by the traffic. None of it is timed.
func (ck *checker) prepare(tr *traffic, clients int) error {
	var ms []member
	for _, it := range tr.universe {
		ms = append(ms, it.members...)
	}
	if err := ck.expectMembers(ms); err != nil {
		return err
	}
	for _, it := range tr.universe {
		if !it.batch {
			ck.expWarm[it] = ck.exp[it.members[0].key].warm
		}
	}
	if tr.spec.name == "warm-hits" {
		c := newClient()
		defer closeClient(c)
		pre := &window{prep: true}
		for _, it := range tr.universe {
			code, body, err := post(c, ck.nodes[0].url+"/v1/jobs?wait=1", it.body, nil)
			pre.answers = append(pre.answers, answer{req: request{item: it}, code: code, body: body, err: err})
		}
		if n := ck.verify(pre); n > 0 {
			ck.problem("%d of %d pre-warm answers failed", n, len(tr.universe))
		}
	}
	pre := drive(ck.nodes, tr.stream, clients, warmup, ck.expWarm, false)
	pre.prep = true
	if n := ck.verify(pre); n > 0 {
		ck.problem("%d of %d warm-up answers failed", n, pre.attempted)
	}
	return nil
}

// warmup is how long each workload's traffic runs before its window.
const warmup = 2 * time.Second

// verify checks every answer of w not verified inline and returns how
// many requests failed. Expected answers of keys seen for the first
// time are computed directly here, after the window.
func (ck *checker) verify(w *window) int {
	sort.Slice(w.answers, func(i, j int) bool { return w.answers[i].at < w.answers[j].at })
	var ms []member
	for _, a := range w.answers {
		ms = append(ms, a.req.item.members...)
	}
	if err := ck.expectMembers(ms); err != nil {
		ck.problem("%v", err)
		ck.failed[w] = len(w.answers)
		return len(w.answers)
	}
	failed := 0
	for _, a := range w.answers {
		if !ck.check(a, w) {
			failed++
		}
	}
	ck.failed[w] = failed
	return failed
}

// check verifies one answer and records the jobs it computed.
func (ck *checker) check(a answer, w *window) bool {
	it := a.req.item
	if a.err != nil || a.code != http.StatusOK {
		ck.problem("%s: status %d, error %v: %.200s", it.members[0].key, a.code, a.err, a.body)
		return false
	}
	var sts []statusWire
	if it.batch {
		var b batchWire
		if err := json.Unmarshal(a.body, &b); err != nil {
			ck.problem("batch: %v", err)
			return false
		}
		sts = b.Jobs
	} else {
		var st statusWire
		if err := json.Unmarshal(a.body, &st); err != nil {
			ck.problem("%s: %v", it.members[0].key, err)
			return false
		}
		sts = []statusWire{st}
	}
	if len(sts) != len(it.members) {
		ck.problem("%s: %d statuses for %d requests", it.members[0].key, len(sts), len(it.members))
		return false
	}
	ok := true
	for i, st := range sts {
		m := it.members[i]
		switch {
		case st.State != serve.JobDone:
			ck.problem("%s: state %q: %s", m.key, st.State, st.Error)
			ok = false
		case st.Key != m.key:
			ck.problem("%s: answered for key %s", m.key, st.Key)
			ok = false
		case !bytes.Equal(st.Result, ck.exp[m.key].result):
			ck.problem("%s: result differs from the direct computation:\n served %s\n direct %s", m.key, st.Result, ck.exp[m.key].result)
			ok = false
		case !st.Cached:
			ck.computed = append(ck.computed, computedJob{m: m, owner: owner(ck.nodes, m.key), window: w})
		}
	}
	return ok
}

func (ck *checker) failedIn(w *window) int { return ck.failed[w] }

// quality is the paper's two quality figures over the distinct keys a
// window answered.
type quality struct {
	gapPct, experimentsPct float64
	keys                   int
	byClass                map[string]*quality
}

// quality proves the optimum of every problem the window's keys pose
// and averages, over the keys, how far each answer's measured objective
// lies above it, and what share of its configuration space it measured.
func (ck *checker) quality(w *window) (quality, error) {
	seen := map[string]bool{}
	var ms []member
	classOf := map[string]string{}
	for it := range w.items {
		for _, m := range it.members {
			if !seen[m.key] {
				seen[m.key] = true
				ms = append(ms, m)
				classOf[m.key] = it.class
			}
		}
	}
	sort.Slice(ms, func(i, j int) bool { return ms[i].key < ms[j].key })
	if err := ck.expectMembers(ms); err != nil {
		return quality{}, err
	}
	reqs := make([]canonical, len(ms))
	for i, m := range ms {
		reqs[i] = m.req
	}
	opts, err := ck.env.optima(reqs, ck.workers)
	if err != nil {
		return quality{}, err
	}
	q := quality{byClass: map[string]*quality{}}
	for _, m := range ms {
		e, opt := ck.exp[m.key], opts[refKey(m.req)]
		g := gapPct(e.measured, opt)
		if g < -1e-9 {
			ck.problem("%s: measured objective %.17g beats the proven optimum %.17g", m.key, e.measured, opt.value)
		}
		if m.req.Method == "EM" && m.req.Strategy == "auto" && math.Abs(g) > 1e-9 {
			// Enumeration measures every configuration: its answer is the
			// optimum, which cross-checks the proof.
			ck.problem("%s: enumeration found %.17g but the proof says %.17g", m.key, e.measured, opt.value)
		}
		exps := float64(e.exps) / float64(opt.space) * 100
		c := q.byClass[classOf[m.key]]
		if c == nil {
			c = &quality{}
			q.byClass[classOf[m.key]] = c
		}
		for _, s := range []*quality{&q, c} {
			s.gapPct += g
			s.experimentsPct += exps
			s.keys++
		}
	}
	all := []*quality{&q}
	for _, c := range q.byClass {
		all = append(all, c)
	}
	for _, s := range all {
		if s.keys > 0 {
			s.gapPct /= float64(s.keys)
			s.experimentsPct /= float64(s.keys)
		}
	}
	return q, nil
}

// memoHitRatio replays the jobs the service computed through one
// configuration memo per (owning node, workload, platform, size) — the
// service's shared measurement memo — and returns the share of the
// windows' measurement lookups a memo served without measuring. Jobs
// computed during preparation fill the memos but are not counted.
func (ck *checker) memoHitRatio() float64 {
	type memoKey struct {
		owner              int
		workload, platform string
		size               float64
	}
	memos := map[memoKey]map[uint64]bool{}
	lookups, hits := 0, 0
	for _, j := range ck.computed {
		k := memoKey{j.owner, j.m.req.Workload, j.m.req.Platform, j.m.req.SizeMB}
		memo := memos[k]
		if memo == nil {
			memo = map[uint64]bool{}
			memos[k] = memo
		}
		for _, c := range ck.exp[j.m.key].trace.configs {
			if !j.window.prep {
				lookups++
				if memo[c] {
					hits++
				}
			}
			memo[c] = true
		}
	}
	if lookups == 0 {
		return 0
	}
	return float64(hits) / float64(lookups)
}
