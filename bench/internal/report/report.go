// Package report holds what the benchmark and its comparator share:
// the schema of the results file the benchmark writes with -out, and
// the quartile rule both use to summarise repeated runs.
package report

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// Value is one metric reading with its unit.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// File is one benchmark invocation's results.
type File struct {
	GoVersion  string     `json:"goVersion"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	NumCPU     int        `json:"numCPU"`
	Seed       int64      `json:"seed"`
	Seconds    float64    `json:"seconds"`
	Trace      bool       `json:"trace"`
	Workloads  []Workload `json:"workloads"`
}

// Workload is one workload's results within a File.
type Workload struct {
	Name      string           `json:"name"`
	Rounds    int              `json:"rounds"`
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Failures  []string         `json:"failures,omitempty"`
	Metrics   map[string]Value `json:"metrics"`
	Layers    map[string]Value `json:"layers,omitempty"`
	// Info carries facts a reader checks by eye (journal tip hashes,
	// action counts, sample counts); nothing compares them.
	Info map[string]string `json:"info,omitempty"`
}

// Read loads a results file.
func Read(path string) (File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return File{}, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return File{}, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// Quartiles returns the first quartile, the median and the third
// quartile of xs by the rule of Python's statistics.quantiles(xs, n=4)
// (the "exclusive" method), so spreads computed here match those
// computed from the same values in Python. xs need not be sorted and
// is not modified. An empty input yields zeros; a single value is its
// own quartiles.
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	data := append([]float64(nil), xs...)
	sort.Float64s(data)
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// Median returns the median of xs (0 for an empty input).
func Median(xs []float64) float64 {
	_, m, _ := Quartiles(xs)
	return m
}
