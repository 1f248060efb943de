// Command perfbench is the repository's end-to-end benchmark. It compiles
// seeded workloads through internal/pipeline, serves seeded traffic
// through an in-process internal/cluster router in front of two
// internal/server shards, checks every output, and prints the metrics
// BENCHMARK.json names. A traced run (-trace 1) instead composes the
// compile from outside, one layer at a time, and reports per-layer
// figures. See README.md.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload kernels --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation's settings; size scales every workload's input
// set (1 in real runs, smaller in the package's smoke tests).
type config struct {
	seed   int64
	budget time.Duration
	tr     *tracer
	work   string // scratch directory inside the checkout
	size   float64
}

// outcome is what a workload run reports back to main.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
	// codeCycles and spillOps are the deterministic code-quality totals
	// the cross-run drift record keeps.
	codeCycles, spillOps int
	notes                []string
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.notes) < 20 {
		o.notes = append(o.notes, "FAIL "+fmt.Sprintf(format, args...))
	}
}

var workloadRuns = map[string]func(*config) (*outcome, error){
	"kernels":  runKernels,
	"pressure": runPressure,
	"targets":  runTargets,
	"serve":    runServe,
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var (
		name    = fl.String("workload", "", "workload to run: kernels, pressure, targets or serve")
		seed    = fl.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds = fl.Int("seconds", 20, "measurement time in seconds")
		trace   = fl.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
		root    = fl.String("root", ".", "repository checkout holding BENCHMARK.json")
	)
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(stderr, "perfbench: -seconds must be at least 1")
		return 2
	}
	spec, err := loadSpec(filepath.Join(*root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	runW, ok := workloadRuns[*name]
	if !ok || !spec.workload(*name) {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	work := filepath.Join(*root, ".bench_build", "perfbench")
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	cfg := &config{seed: *seed, budget: time.Duration(*seconds) * time.Second, work: work, size: 1}
	if *trace == 1 {
		cfg.tr = newTracer()
	}
	h := stampHost(*root, *name, *seed, *trace)

	out, err := runW(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if *trace == 0 {
		checkRecord(filepath.Join(work, "record", fmt.Sprintf("%s-%d.json", *name, *seed)), h.Source, out)
	} else {
		path := filepath.Join(work, "trace", fmt.Sprintf("%s-%d.json", *name, *seed))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
			err = cfg.tr.write(path, h)
		}
		if err != nil {
			fmt.Fprintln(stderr, "perfbench: writing spans:", err)
			return 1
		}
		out.notes = append(out.notes, "spans written to "+path)
	}
	if err := report(stdout, spec, out, *trace == 1, h); err != nil {
		fmt.Fprintf(stderr, "perfbench: workload %s: %v\n", *name, err)
		return 1
	}
	return 0
}

// report prints the run's notes and host stamp as comment lines, then
// the result: one JSON object with every metric the spec lists for the
// mode, each with its unit.
func report(w io.Writer, spec *Spec, out *outcome, traced bool, h host) error {
	list := spec.EndToEnd
	if traced {
		list = spec.PerLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(list))
	for _, m := range list {
		v, ok := out.metrics[m.Name]
		if !ok {
			return fmt.Errorf("%s was not measured", m.Name)
		}
		metrics[m.Name] = value{v, m.Unit}
	}
	for _, n := range out.notes {
		fmt.Fprintln(w, "#", n)
	}
	stamp, err := json.Marshal(h)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# host %s\n", stamp)
	res, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.failed == 0, out.attempted, out.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(res))
	return err
}

// host stamps a result with where and on what it was measured.
type host struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	// Source is a digest of the Go sources and go.mod files under the
	// checkout root; it identifies the code when there is no git commit.
	Source   string `json:"source"`
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
}

func stampHost(root, workload string, seed int64, trace int) host {
	h := host{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     "unknown",
		Source:     sourceDigest(root),
		Workload:   workload,
		Seed:       seed,
		Trace:      trace,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceDigest hashes every .go and go.mod file under root, skipping
// hidden directories (the build output among them).
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", rel, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// peakRSSMB is the process's peak resident set in MiB (VmHWM), falling
// back to the Go runtime's total obtained memory off Linux.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// record is the code-quality totals an untraced run of one workload and
// seed produced on one source digest.
type record struct {
	Source     string `json:"source"`
	CodeCycles int    `json:"code_cycles"`
	SpillOps   int    `json:"spill_ops"`
}

// checkRecord compares the run's code-quality totals with the last run of
// the same workload and seed on the same sources, counting a difference
// as a failed operation, and then records this run's totals if the run
// had no failures.
func checkRecord(path, source string, out *outcome) {
	now := record{source, out.codeCycles, out.spillOps}
	if data, err := os.ReadFile(path); err == nil {
		var prev record
		if json.Unmarshal(data, &prev) == nil && prev.Source == source && prev != now {
			out.attempted++
			out.fail("drift from the previous run of this seed: code_cycles %d -> %d, spill_ops %d -> %d",
				prev.CodeCycles, now.CodeCycles, prev.SpillOps, now.SpillOps)
			return
		}
	} else if !errors.Is(err, fs.ErrNotExist) {
		out.notes = append(out.notes, "drift record unreadable: "+err.Error())
	}
	if out.failed > 0 {
		return
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		out.notes = append(out.notes, "drift record not written: "+err.Error())
		return
	}
	data, _ := json.Marshal(now)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		out.notes = append(out.notes, "drift record not written: "+err.Error())
	}
}
