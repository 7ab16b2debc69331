package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// spec is BENCHMARK.json, the declaration of this benchmark the
// repository's driver reads: the command, the workloads and the metric
// lists with their units, directions and regression bounds.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadSpec reads BENCHMARK.json from the repository root: the parent
// of this package's directory, where `go run -C bench .` starts, or the
// working directory itself.
func loadSpec() (*spec, error) {
	var firstErr error
	for _, path := range []string{"../BENCHMARK.json", "BENCHMARK.json"} {
		data, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var s spec
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &s, nil
	}
	return nil, firstErr
}
