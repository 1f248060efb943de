package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
)

// Spec is BENCHMARK.json: the command, the workloads, and every metric
// with its unit, direction and (end-to-end only) regression bound. The
// program reports exactly the metrics the spec names, with the spec's
// units, so the file is the single list of what is measured.
type Spec struct {
	Command    []string   `json:"command"`
	Paths      []string   `json:"paths"`
	RunSeconds int        `json:"run_seconds"`
	Workloads  []Workload `json:"workloads"`
	EndToEnd   []Metric   `json:"end_to_end"`
	PerLayer   []Metric   `json:"per_layer"`
}

// Workload names one input set and why the benchmark has it.
type Workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// Metric is one reported figure. Bound is the share of the parent's
// median by which an end-to-end metric may worsen; per-layer metrics
// have none.
type Metric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

// validName reports whether s may name a workload or metric: it starts
// with a letter or digit and has at most 64 letters, digits, '_', '.'
// and '-'.
func validName(s string) bool { return nameRE.MatchString(s) }

// loadSpec reads and validates BENCHMARK.json, rejecting unknown keys.
func loadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parseSpec(data)
}

func parseSpec(data []byte) (*Spec, error) {
	if len(data) > 64<<10 {
		return nil, fmt.Errorf("spec: %d bytes, limit is 64 KiB", len(data))
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	if err := s.validate(); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	return &s, nil
}

func (s *Spec) validate() error {
	if len(s.Command) == 0 || len(s.Command) > 32 {
		return fmt.Errorf("command has %d strings, want 1 to 32", len(s.Command))
	}
	for _, c := range s.Command {
		if len(c) == 0 || len(c) > 200 {
			return fmt.Errorf("command string %q: want 1 to 200 characters", c)
		}
	}
	if len(s.Paths) == 0 || len(s.Paths) > 16 {
		return fmt.Errorf("paths has %d entries, want 1 to 16", len(s.Paths))
	}
	for _, p := range s.Paths {
		if !pathRE.MatchString(p) || p[0] == '/' || bytes.Contains([]byte(p), []byte("..")) {
			return fmt.Errorf("path %q: want a relative path of letters, digits, '_', '.', '-' and '/'", p)
		}
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		return fmt.Errorf("run_seconds %d: want 1 to 60", s.RunSeconds)
	}
	if len(s.Workloads) < 2 || len(s.Workloads) > 8 {
		return fmt.Errorf("%d workloads, want 2 to 8", len(s.Workloads))
	}
	if len(s.EndToEnd) < 1 || len(s.EndToEnd) > 16 {
		return fmt.Errorf("%d end_to_end metrics, want 1 to 16", len(s.EndToEnd))
	}
	if len(s.PerLayer) < 1 || len(s.PerLayer) > 128 {
		return fmt.Errorf("%d per_layer metrics, want 1 to 128", len(s.PerLayer))
	}
	seen := map[string]bool{}
	use := func(name string) error {
		if !validName(name) {
			return fmt.Errorf("invalid name %q", name)
		}
		if seen[name] {
			return fmt.Errorf("name %q used twice", name)
		}
		seen[name] = true
		return nil
	}
	for _, w := range s.Workloads {
		if err := use(w.Name); err != nil {
			return err
		}
		if w.Why == "" || len(w.Why) > 200 || bytes.ContainsAny([]byte(w.Why), "\r\n") {
			return fmt.Errorf("workload %s: why must be one line of 1 to 200 characters", w.Name)
		}
	}
	hasSetup := false
	for _, m := range s.EndToEnd {
		if err := m.validate(use, true); err != nil {
			return err
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		return fmt.Errorf("end_to_end lacks setup_s (unit s, better lower)")
	}
	for _, m := range s.PerLayer {
		if err := m.validate(use, false); err != nil {
			return err
		}
	}
	return nil
}

func (m *Metric) validate(use func(string) error, endToEnd bool) error {
	if err := use(m.Name); err != nil {
		return err
	}
	if !unitRE.MatchString(m.Unit) {
		return fmt.Errorf("metric %s: invalid unit %q", m.Name, m.Unit)
	}
	if m.Better != "lower" && m.Better != "higher" {
		return fmt.Errorf("metric %s: better is %q, want lower or higher", m.Name, m.Better)
	}
	switch {
	case endToEnd && m.Bound == nil:
		return fmt.Errorf("metric %s: end-to-end metric needs a bound", m.Name)
	case endToEnd && (*m.Bound <= 0 || *m.Bound > 0.25):
		return fmt.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, *m.Bound)
	case !endToEnd && m.Bound != nil:
		return fmt.Errorf("metric %s: per-layer metrics carry no bound", m.Name)
	}
	return nil
}

// workload reports whether the spec lists the named workload.
func (s *Spec) workload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}
