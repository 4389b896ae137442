package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// sequence returns the first n requests a workload's stream sends.
func sequence(t *testing.T, spec workloadSpec, seed int64, n int) []string {
	t.Helper()
	tr, err := newTraffic(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, n)
	for i := range out {
		r := tr.stream.take()
		out[i] = fmt.Sprintf("node %d %s", r.node, r.item.body)
	}
	return out
}

func TestSameSeedSameSequence(t *testing.T) {
	for name, spec := range workloads {
		a := sequence(t, spec, 1, 300)
		if b := sequence(t, spec, 1, 300); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 1 gave two different request sequences", name)
		}
		if c := sequence(t, spec, 2, 300); reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 1 and 2 gave the same request sequence", name)
		}
	}
}

func TestColdTuneKeysAndSizesAreFresh(t *testing.T) {
	tr, err := newTraffic(workloads["cold-tune"], 3)
	if err != nil {
		t.Fatal(err)
	}
	keys, sizes := map[string]bool{}, map[string]bool{}
	for i := 0; i < 2000; i++ {
		r := tr.stream.take()
		m := r.item.members[0]
		if keys[m.key] {
			t.Fatalf("request %d repeats key %s", i, m.key)
		}
		keys[m.key] = true
		if r.item.class == "dag" {
			continue
		}
		size := fmt.Sprint(m.req.Platform, m.req.Workload, m.req.SizeMB)
		if sizes[size] {
			t.Fatalf("request %d repeats workload size %s", i, size)
		}
		sizes[size] = true
	}
}

func TestLayerTableRowsSumToTotal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	samples := make([][]float64, 15)
	totals := make([]float64, len(samples))
	for i := range samples {
		samples[i] = make([]float64, len(layerRows))
		for r := range samples[i][:len(layerRows)-1] {
			samples[i][r] = rng.Float64() * 1000
			totals[i] += samples[i][r]
		}
		totals[i] += rng.NormFloat64() * 50
	}
	rows, total := layerTable(samples, totals)
	sum := 0.0
	for _, v := range rows {
		sum += v
	}
	if math.Abs(sum-total) > 1e-9*math.Abs(total) {
		t.Fatalf("rows sum to %g, total is %g", sum, total)
	}
}

// benchmarkNames reads the metric names BENCHMARK.json declares.
func benchmarkNames(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

// TestShortRuns runs every workload briefly: each must answer every
// request correctly and report exactly the metrics BENCHMARK.json
// declares; the traced run's layer table must add up per class.
func TestShortRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models and serves traffic")
	}
	endToEnd, perLayer := benchmarkNames(t)
	for _, tc := range []struct {
		workload string
		trace    bool
	}{{"warm-hits", true}, {"cold-tune", false}, {"mixed-cluster", false}} {
		cfg := config{workload: tc.workload, seed: 7, seconds: 0.5, trace: tc.trace, clients: 2, setupReps: 1, workers: 2}
		var out bytes.Buffer
		res, err := run(cfg, &out)
		if err != nil {
			t.Fatalf("%s: %v\n%s", tc.workload, err, out.String())
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%t attempted=%d failed=%d\n%s", tc.workload, res.Correct, res.Attempted, res.Failed, out.String())
		}
		want := endToEnd
		if tc.trace {
			want = perLayer
		}
		var got []string
		for name := range res.Metrics {
			got = append(got, name)
		}
		if !sameSet(got, want) {
			t.Errorf("%s: metrics %v, BENCHMARK.json declares %v", tc.workload, got, want)
		}
		if tc.trace {
			checkLayerTable(t, out.String())
		}
	}
}

// checkLayerTable parses the printed layer table and checks that every
// class's rows add up to its total, up to the printed rounding.
func checkLayerTable(t *testing.T, out string) {
	t.Helper()
	_, table, ok := strings.Cut(out, "layer table:")
	if !ok {
		t.Fatal("no layer table printed")
	}
	classes := 0
	for _, line := range strings.Split(table, "\n")[2:] {
		f := strings.Fields(line)
		if len(f) != len(layerRows)+3 {
			break
		}
		classes++
		sum := 0.0
		for _, s := range f[2 : len(f)-1] {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				t.Fatalf("layer table line %q: %v", line, err)
			}
			sum += v
		}
		total, _ := strconv.ParseFloat(f[len(f)-1], 64)
		if math.Abs(sum-total) > 0.05*float64(len(layerRows)+1) {
			t.Errorf("class %s: rows sum to %.1f, total %.1f", f[0], sum, total)
		}
	}
	if want := 2 + len(coldClasses); classes != want {
		t.Errorf("layer table has %d classes, want %d", classes, want)
	}
}

func sameSet(a, b []string) bool {
	m := map[string]int{}
	for _, s := range a {
		m[s]++
	}
	for _, s := range b {
		m[s]--
	}
	for _, n := range m {
		if n != 0 {
			return false
		}
	}
	return len(a) == len(b)
}
