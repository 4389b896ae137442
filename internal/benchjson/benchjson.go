// Package benchjson is the repo's measured perf record: it runs the
// tracked microbenchmarks of the evaluator hot path programmatically
// (testing.Benchmark), serializes their ns/op, allocs/op and B/op into
// a BENCH_<pr>.json file, and compares two such files to gate
// regressions in CI (see DESIGN.md, "The hot path", and README,
// "Reading BENCH_*.json").
//
// Two of the three metrics are machine-independent: allocs/op and B/op
// are exact counts, so a cross-machine comparison of them is
// deterministic — in particular, the zero-allocation contract of the
// memo-hit and steady-state evaluation paths shows up as allocs_per_op
// 0 and any regression fails the gate no matter the tolerance. ns/op is
// hardware-dependent; compare it only against a record produced on
// comparable hardware, or skip it (cmd/hetbenchjson -skip-ns).
package benchjson

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// Record is one tracked benchmark's measurement.
type Record struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// File is the serialized perf record. The host metadata (GOMAXPROCS,
// NumCPU, CPU) is optional: records written before it existed load
// with the fields zero, and CPU stays empty off Linux.
type File struct {
	Schema     int      `json:"schema"`
	GoVersion  string   `json:"go"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	GOMAXPROCS int      `json:"gomaxprocs,omitempty"`
	NumCPU     int      `json:"num_cpu,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Benchmarks []Record `json:"benchmarks"`
}

// Def is one tracked benchmark: a name stable across PRs and the
// function the testing harness drives. Bench must call b.ReportAllocs
// so allocation counts are recorded.
type Def struct {
	Name  string
	Bench func(b *testing.B)
}

// Run executes every definition and assembles the record, in input
// order.
func Run(defs []Def) File {
	f := File{
		Schema:     1,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPU:        hostCPU(),
	}
	for _, d := range defs {
		r := testing.Benchmark(d.Bench)
		f.Benchmarks = append(f.Benchmarks, Record{
			Name:        d.Name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		})
	}
	return f
}

// hostCPU returns the CPU model name on Linux, empty elsewhere or when
// /proc/cpuinfo cannot be read.
func hostCPU() string {
	if runtime.GOOS != "linux" {
		return ""
	}
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	return cpuModel(b)
}

// cpuModel extracts the first "model name" value of a /proc/cpuinfo
// listing.
func cpuModel(cpuinfo []byte) string {
	for _, line := range strings.Split(string(cpuinfo), "\n") {
		key, value, ok := strings.Cut(line, ":")
		if ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(value)
		}
	}
	return ""
}

// Write serializes f as indented JSON with a trailing newline.
func Write(w io.Writer, f File) error {
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// ReadFile loads a previously written record.
func ReadFile(path string) (File, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return File{}, err
	}
	var f File
	if err := json.Unmarshal(b, &f); err != nil {
		return File{}, fmt.Errorf("benchjson: parsing %s: %w", path, err)
	}
	if f.Schema != 1 {
		return File{}, fmt.Errorf("benchjson: %s has unknown schema %d", path, f.Schema)
	}
	return f, nil
}

// CompareOptions tunes the regression gate.
type CompareOptions struct {
	// NsTolerance is the allowed fractional ns/op growth (0.10 = +10%).
	NsTolerance float64
	// AllocTolerance is the allowed fractional allocs/op and B/op
	// growth. A baseline of 0 tolerates nothing: the zero-allocation
	// paths must stay at zero.
	AllocTolerance float64
	// SkipNs disables the ns/op comparison (cross-machine records).
	SkipNs bool
}

// Compare gates cur against the baseline old: every baseline benchmark
// must still exist, and none may regress beyond the tolerances. It
// returns one human-readable line per violation (empty means the gate
// passes). Benchmarks only present in cur are ignored — adding tracked
// benchmarks is not a regression.
func Compare(old, cur File, opt CompareOptions) []string {
	curByName := make(map[string]Record, len(cur.Benchmarks))
	for _, r := range cur.Benchmarks {
		curByName[r.Name] = r
	}
	var problems []string
	exceeds := func(baseline, now, tol float64) bool {
		return now > baseline*(1+tol)
	}
	for _, o := range old.Benchmarks {
		c, ok := curByName[o.Name]
		if !ok {
			problems = append(problems, fmt.Sprintf("%s: tracked benchmark missing from current record", o.Name))
			continue
		}
		if !opt.SkipNs && exceeds(o.NsPerOp, c.NsPerOp, opt.NsTolerance) {
			problems = append(problems, fmt.Sprintf("%s: ns/op regressed %.0f -> %.0f (>%.0f%%)",
				o.Name, o.NsPerOp, c.NsPerOp, opt.NsTolerance*100))
		}
		if exceeds(float64(o.AllocsPerOp), float64(c.AllocsPerOp), opt.AllocTolerance) {
			problems = append(problems, fmt.Sprintf("%s: allocs/op regressed %d -> %d (>%.0f%%)",
				o.Name, o.AllocsPerOp, c.AllocsPerOp, opt.AllocTolerance*100))
		}
		if exceeds(float64(o.BytesPerOp), float64(c.BytesPerOp), opt.AllocTolerance) {
			problems = append(problems, fmt.Sprintf("%s: B/op regressed %d -> %d (>%.0f%%)",
				o.Name, o.BytesPerOp, c.BytesPerOp, opt.AllocTolerance*100))
		}
	}
	sort.Strings(problems)
	return problems
}
