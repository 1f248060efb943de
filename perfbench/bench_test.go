package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n       int
		want    float64
		wantPct float64
	}{
		{1000, 99, 99},
		{100, 90, 90},
		{402, 99, 100 * 392.0 / 402},
		{50, 90, 80},
		{15, 90, 50}, // too few for any tail: the median
	} {
		samples := make([]float64, tc.n)
		for i := range samples {
			samples[i] = float64(tc.n - i) // unsorted on purpose
		}
		v, pct := tail(samples, tc.want)
		if pct != tc.wantPct {
			t.Errorf("n=%d p%v: reported p%v, want p%v", tc.n, tc.want, pct, tc.wantPct)
		}
		beyond := 0
		for _, s := range samples {
			if s > v {
				beyond++
			}
		}
		if pct > 50 && beyond < minBeyond {
			t.Errorf("n=%d p%v: %d samples beyond %v, want at least %d", tc.n, tc.want, beyond, v, minBeyond)
		}
	}
	if v, pct := tail(nil, 90); v != 0 || pct != 0 {
		t.Errorf("empty: got %v at p%v", v, pct)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestValidName(t *testing.T) {
	for _, ok := range []string{"setup_s", "core.run_ms", "server.elapsed_ms.hit", "p99", "9lives", "a-b"} {
		if !validName(ok) {
			t.Errorf("%q rejected", ok)
		}
	}
	for _, bad := range []string{"", "_x", ".x", "-x", "a b", "a/b", "ü", strings.Repeat("a", 65)} {
		if validName(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestSpecRoundTrip(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := parseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	again, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var raw, round any
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(again, &round); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(raw, round) {
		t.Errorf("BENCHMARK.json does not survive a round trip:\n%s\n%s", data, again)
	}
	if len(spec.Workloads) != len(workloadRuns) {
		t.Errorf("spec lists %d workloads, the program runs %d", len(spec.Workloads), len(workloadRuns))
	}
	for _, w := range spec.Workloads {
		if workloadRuns[w.Name] == nil {
			t.Errorf("spec workload %s has no implementation", w.Name)
		}
	}
	for _, bad := range []string{
		strings.Replace(string(data), `"run_seconds"`, `"extra": 1, "run_seconds"`, 1),
		strings.Replace(string(data), `"name": "setup_s"`, `"name": "setup s"`, 1),
		strings.Replace(string(data), `"bound": 0.25`, `"bound": 0.5`, 1),
	} {
		if _, err := parseSpec([]byte(bad)); err == nil {
			t.Errorf("accepted an invalid spec:\n%s", bad)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "compile", Key: "b1", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "core.run", Key: "b1", Start: 10, End: 60},
		{ID: 2, Parent: 0, Name: "assign.emit", Key: "b1", Start: 50, End: 80},
		{ID: 3, Parent: -1, Name: "compile", Key: "b2", Start: 200, End: 210},
	}
	st := selfTimes(spans)
	if got := st["compile"]; got.Self != 30+10 || got.Total != 110 || got.Keys != 2 {
		t.Errorf("compile: %+v, want self 40, total 110, 2 keys", got)
	}
	if got := st["core.run"].Self; got != 50 {
		t.Errorf("core.run self = %v, want 50", got)
	}
}

// TestSmoke runs every workload at a small fraction of its input set, in
// both modes, and checks that it fails nothing and reports every metric
// the spec names in the result format.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and serves real inputs")
	}
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			cfg := &config{seed: 7, budget: 300 * time.Millisecond, work: t.TempDir(), size: 0.05}
			if traced {
				cfg.tr = newTracer()
			}
			out, err := workloadRuns[w.Name](cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if out.failed != 0 || out.attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d failed: %v", w.Name, traced, out.failed, out.attempted, out.notes)
			}
			var buf bytes.Buffer
			if err := report(&buf, spec, out, traced, host{Workload: w.Name}); err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			var res struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := dec.Decode(&res); err != nil {
				t.Fatalf("%s traced=%v: result line %q: %v", w.Name, traced, lines[len(lines)-1], err)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok || got.Unit != m.Unit:
					t.Errorf("%s traced=%v: %s = %+v, want unit %s", w.Name, traced, m.Name, got, m.Unit)
				case !traced && got.Value <= 0 && m.Name != "spill_ops": // a few small blocks may need no spills
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}
