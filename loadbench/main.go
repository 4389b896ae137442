// Command loadbench is the repository benchmark: seeded tuning traffic
// sent over loopback HTTP to in-process serve.Server nodes, every
// answer checked against a direct computation, end-to-end metrics from
// an untraced window and per-layer metrics from a traced one. See
// README.md for the workloads, the metrics and how to run it.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadbench:", err)
		os.Exit(2)
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// config is one benchmark run.
type config struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	clients   int // closed-loop clients, one connection each per node
	setupReps int // fresh deployments timed for setup_s
	workers   int // goroutines verifying answers after the window
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("loadbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "warm-hits, cold-tune or mixed-cluster")
	seed := fs.Int64("seed", 1, "traffic seed")
	seconds := fs.Float64("seconds", 10, "length of the timed window")
	trace := fs.Int("trace", 0, "1 runs a traced window after the untraced one and prints per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if _, ok := workloads[*workload]; !ok {
		return config{}, fmt.Errorf("unknown -workload %q (want warm-hits, cold-tune or mixed-cluster)", *workload)
	}
	if *seconds <= 0 {
		return config{}, fmt.Errorf("-seconds must be positive")
	}
	if *trace != 0 && *trace != 1 {
		return config{}, fmt.Errorf("-trace must be 0 or 1")
	}
	return config{
		workload:  *workload,
		seed:      *seed,
		seconds:   *seconds,
		trace:     *trace == 1,
		clients:   min(runtime.NumCPU(), maxClients),
		setupReps: 3,
		workers:   runtime.NumCPU(),
	}, nil
}

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects metrics in print order and prints each as it lands.
type report struct {
	out     io.Writer
	metrics map[string]metric
}

func (r *report) add(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	fmt.Fprintf(r.out, "metric %-34s %14.6g %s\n", name, v, unit)
}

// run executes one benchmark run and returns its result line.
func run(cfg config, out io.Writer) (*result, error) {
	spec := workloads[cfg.workload]
	printHost(out, cfg)

	// Set-up: fresh deployments, each built and trained from nothing.
	// The last one serves the run.
	var nodes []*node
	setups := make([]float64, cfg.setupReps)
	for i := range setups {
		if nodes != nil {
			if err := stopNodes(nodes); err != nil {
				return nil, err
			}
		}
		var err error
		if nodes, setups[i], err = setUp(spec); err != nil {
			return nil, err
		}
	}
	defer func() {
		if nodes != nil {
			_ = stopNodes(nodes) // error paths; the success path checks it below
		}
	}()
	fmt.Fprintf(out, "setup: %d deployments of %d node(s), pairs %v: %s s\n", cfg.setupReps, spec.nodes, spec.pairs, joinFloats(setups))

	env := newRefEnv()
	pairs := spec.pairs
	if cfg.trace {
		pairs = allPairs
	}
	for _, p := range pairs {
		if err := env.train(p); err != nil {
			return nil, err
		}
	}

	tr, err := newTraffic(spec, cfg.seed)
	if err != nil {
		return nil, err
	}
	ck := newChecker(env, nodes, cfg.workers)
	if err := ck.prepare(tr, cfg.clients); err != nil {
		return nil, err
	}

	dur := time.Duration(cfg.seconds * float64(time.Second))
	runtime.GC()
	w := drive(nodes, tr.stream, cfg.clients, dur, ck.expWarm, false)
	memPeak, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	windows := []*window{w}

	var tw *traceWindow
	if cfg.trace {
		if tw, err = tracedWindow(nodes, tr, cfg, ck); err != nil {
			return nil, err
		}
		windows = append(windows, tw.w)
	}

	failed := 0
	for _, win := range windows {
		failed += ck.verify(win)
	}

	res := &result{Attempted: w.attempted, Metrics: map[string]metric{}}
	rep := &report{out: out, metrics: res.Metrics}
	fmt.Fprintf(out, "window: %d requests in %.3f s, %d warm inline, %d checked after; %d failed\n",
		w.attempted, w.seconds, w.warm, len(w.answers), ck.failedIn(w))
	if cfg.trace {
		res.Attempted = 0
		for _, win := range windows {
			res.Attempted += win.attempted
		}
		res.Attempted += tw.probes
		failed += tw.probeFailed
		tw.report(rep, ck, w)
	} else {
		quality, err := ck.quality(w)
		if err != nil {
			return nil, err
		}
		classes := make([]string, 0, len(quality.byClass))
		for c := range quality.byClass {
			classes = append(classes, c)
		}
		sort.Strings(classes)
		for _, c := range classes {
			q := quality.byClass[c]
			fmt.Fprintf(out, "quality %-10s keys %5d  gap %8.4f%%  experiments %8.4f%%\n", c, q.keys, q.gapPct, q.experimentsPct)
		}
		e := w.endToEnd()
		fmt.Fprintf(out, "latency: %d samples; rps and p50 over %d slices, p99 over %d slices with >= %d samples beyond it in each; failed_share %.6g\n",
			len(w.rttNs), e.slices, e.p99Slices, e.minBeyond, float64(ck.failedIn(w))/float64(w.attempted))
		rep.add("setup_s", median(setups), "s")
		rep.add("throughput_rps", e.rps, "1/s")
		rep.add("latency_p50_ms", e.p50Ns/1e6, "ms")
		rep.add("latency_p99_ms", e.p99Ns/1e6, "ms")
		rep.add("gap_pct", quality.gapPct, "%")
		rep.add("experiments_pct", quality.experimentsPct, "%")
		rep.add("mem_peak_mb", memPeak, "MB")
	}
	res.Failed = failed
	res.Correct = failed == 0 && len(ck.problems) == 0
	for _, p := range ck.problems {
		fmt.Fprintln(out, "check failed:", p)
	}
	if err := stopNodes(nodes); err != nil {
		return nil, err
	}
	nodes = nil
	return res, nil
}

// allPairs are the model pairs any workload trains; the traced run
// times core.Train on each.
var allPairs = []modelPair{{platform: "paper", family: "dna"}, probePair}

// printHost records what the run measured on.
func printHost(out io.Writer, cfg config) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					commit += "+modified"
				}
			}
		}
	}
	fmt.Fprintf(out, "host: cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
	fmt.Fprintf(out, "run: workload=%s seed=%d seconds=%g clients=%d trace=%t\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.clients, cfg.trace)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB is the process's peak resident set so far (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// percentiles returns the nearest-rank p50 and p99 of ns, and how many
// samples lie beyond the p99.
func percentiles(ns []int64) (p50, p99 float64, beyond int) {
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := func(q float64) int {
		r := int(q*float64(len(s))+0.999999999) - 1
		if r < 0 {
			r = 0
		}
		return r
	}
	if len(s) == 0 {
		return 0, 0, 0
	}
	i99 := rank(0.99)
	return float64(s[rank(0.5)]), float64(s[i99]), len(s) - 1 - i99
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func medianNs(ns []int64) float64 {
	xs := make([]float64, len(ns))
	for i, v := range ns {
		xs[i] = float64(v)
	}
	return median(xs)
}

func joinFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return strings.Join(parts, " ")
}
