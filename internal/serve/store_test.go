package serve

import (
	"fmt"
	"sync"
	"testing"
)

func TestStoreSingleFlight(t *testing.T) {
	s := NewStore(0)
	var computes int
	var mu sync.Mutex
	compute := func() (TuneResult, error) {
		mu.Lock()
		computes++
		mu.Unlock()
		return TuneResult{TimeSec: 1.5}, nil
	}

	const callers = 16
	var wg sync.WaitGroup
	hits := make([]bool, callers)
	results := make([]TuneResult, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err, hit := s.Do("k", compute)
			if err != nil {
				t.Errorf("Do: %v", err)
			}
			hits[i], results[i] = hit, res
		}(i)
	}
	wg.Wait()

	if computes != 1 {
		t.Fatalf("computed %d times, want 1 (single flight)", computes)
	}
	paid := 0
	for i := range hits {
		if results[i].TimeSec != 1.5 {
			t.Fatalf("caller %d got %+v", i, results[i])
		}
		if !hits[i] {
			paid++
		}
	}
	if paid != 1 {
		t.Fatalf("%d callers paid, want exactly 1", paid)
	}
	if s.Lookups() != callers || s.Hits() != callers-1 {
		t.Fatalf("accounting lookups=%d hits=%d, want %d/%d", s.Lookups(), s.Hits(), callers, callers-1)
	}
}

func TestStorePeek(t *testing.T) {
	s := NewStore(0)
	if _, ok := s.Peek("missing"); ok {
		t.Fatalf("Peek found a missing key")
	}
	if s.Lookups() != 0 {
		t.Fatalf("a Peek miss must not count a lookup (the later Do counts it)")
	}
	if _, err, _ := s.Do("k", func() (TuneResult, error) { return TuneResult{EnergyJ: 3}, nil }); err != nil {
		t.Fatalf("Do: %v", err)
	}
	res, ok := s.Peek("k")
	if !ok || res.EnergyJ != 3 {
		t.Fatalf("Peek after Do: ok=%v res=%+v", ok, res)
	}
	if s.Lookups() != 2 || s.Hits() != 1 {
		t.Fatalf("accounting lookups=%d hits=%d, want 2/1", s.Lookups(), s.Hits())
	}
}

func TestStoreErrorsNotRetained(t *testing.T) {
	s := NewStore(0)
	calls := 0
	failing := func() (TuneResult, error) { calls++; return TuneResult{}, fmt.Errorf("boom %d", calls) }
	if _, err, _ := s.Do("k", failing); err == nil {
		t.Fatalf("first Do swallowed the error")
	}
	if s.Len() != 0 {
		t.Fatalf("failed entry retained (len %d)", s.Len())
	}
	if _, ok := s.Peek("k"); ok {
		t.Fatalf("Peek served a failed entry")
	}
	if _, err, hit := s.Do("k", failing); err == nil || hit {
		t.Fatalf("second Do should recompute and fail again (err=%v hit=%v)", err, hit)
	}
	if calls != 2 {
		t.Fatalf("computed %d times, want 2 (errors are not cached)", calls)
	}
}

func TestStoreLRUEviction(t *testing.T) {
	// A single shard gives exact global LRU order; the default sharded
	// layout enforces the bound per stripe.
	s := newStoreShards(2, 1)
	put := func(key string, v float64) {
		t.Helper()
		if _, err, _ := s.Do(key, func() (TuneResult, error) { return TuneResult{TimeSec: v}, nil }); err != nil {
			t.Fatalf("Do(%s): %v", key, err)
		}
	}
	put("a", 1)
	put("b", 2)
	// Refresh "a" so "b" is the LRU victim when "c" lands.
	if _, ok := s.Peek("a"); !ok {
		t.Fatalf("Peek(a) missed")
	}
	put("c", 3)
	if s.Len() != 2 {
		t.Fatalf("len %d, want 2 (capacity)", s.Len())
	}
	if s.Evictions() != 1 {
		t.Fatalf("evictions %d, want 1", s.Evictions())
	}
	if _, ok := s.Peek("b"); ok {
		t.Fatalf("LRU victim b survived")
	}
	if _, ok := s.Peek("a"); !ok {
		t.Fatalf("recently-used a evicted")
	}
	if _, ok := s.Peek("c"); !ok {
		t.Fatalf("newest c evicted")
	}
}

func TestStoreEvictionSparesInFlight(t *testing.T) {
	s := NewStore(1)
	gate := make(chan struct{})
	started := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _, _ = s.Do("slow", func() (TuneResult, error) {
			close(started)
			<-gate
			return TuneResult{}, nil
		})
	}()
	<-started
	// Two completed entries land while "slow" is in flight; only
	// completed entries may be evicted.
	if _, err, _ := s.Do("a", func() (TuneResult, error) { return TuneResult{}, nil }); err != nil {
		t.Fatalf("Do(a): %v", err)
	}
	if _, err, _ := s.Do("b", func() (TuneResult, error) { return TuneResult{}, nil }); err != nil {
		t.Fatalf("Do(b): %v", err)
	}
	close(gate)
	<-done
	if _, ok := s.Peek("slow"); !ok {
		t.Fatalf("in-flight entry was evicted mid-flight")
	}
}

func TestStorePeekWarmAndSetBody(t *testing.T) {
	s := NewStore(0)
	if _, _, ok := s.PeekWarm([]byte("missing")); ok {
		t.Fatalf("PeekWarm found a missing key")
	}
	if s.Lookups() != 0 {
		t.Fatalf("a PeekWarm miss must not count a lookup")
	}
	if _, err, _ := s.Do("k", func() (TuneResult, error) { return TuneResult{EnergyJ: 7}, nil }); err != nil {
		t.Fatalf("Do: %v", err)
	}
	// Completed but unrendered: ok with a nil body.
	body, res, ok := s.PeekWarm([]byte("k"))
	if !ok || body != nil || res.EnergyJ != 7 {
		t.Fatalf("PeekWarm before SetBody: ok=%v body=%q res=%+v", ok, body, res)
	}
	s.SetBody("k", []byte("first\n"))
	s.SetBody("k", []byte("second\n")) // later render of the same entry: no-op
	body, _, ok = s.PeekWarm([]byte("k"))
	if !ok || string(body) != "first\n" {
		t.Fatalf("PeekWarm after SetBody: ok=%v body=%q, first caller must win", ok, body)
	}
	// SetBody on a missing or failed key is a no-op, not a panic.
	s.SetBody("missing", []byte("x"))
	if s.Lookups() != 3 || s.Hits() != 2 {
		t.Fatalf("accounting lookups=%d hits=%d, want 3/2", s.Lookups(), s.Hits())
	}
}

func TestStoreShardedBound(t *testing.T) {
	// The sharded layout enforces capacity per stripe: the effective
	// bound is capacity rounded down to a multiple of the shard count,
	// and Len never exceeds the nominal capacity.
	s := NewStore(16) // 16 shards, 1 entry each
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("k%03d", i)
		if _, err, _ := s.Do(key, func() (TuneResult, error) { return TuneResult{TimeSec: float64(i)}, nil }); err != nil {
			t.Fatalf("Do(%s): %v", key, err)
		}
	}
	if s.Len() > 16 {
		t.Fatalf("len %d exceeds capacity 16", s.Len())
	}
	if s.Evictions() != 100-s.Len() {
		t.Fatalf("evictions %d + retained %d != 100 inserts", s.Evictions(), s.Len())
	}
	// Small capacities shrink the shard count instead of rounding the
	// bound to zero.
	tiny := NewStore(3)
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("t%d", i)
		if _, err, _ := tiny.Do(key, func() (TuneResult, error) { return TuneResult{}, nil }); err != nil {
			t.Fatalf("Do(%s): %v", key, err)
		}
	}
	if tiny.Len() > 3 || tiny.Len() == 0 {
		t.Fatalf("len %d, want 1..3", tiny.Len())
	}
}
