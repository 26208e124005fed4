// Command benchjson converts `go test -bench` output on stdin into the
// repo's benchmark-trajectory JSON (BENCH_5.json): one record per
// benchmark with ns/op, allocs/op, B/op, and any custom metrics
// (states, scenarios/s, ...). When a benchmark appears multiple times
// (-count > 1), the run with the lowest ns/op wins — the
// least-interference sample is the most reproducible point of a noisy
// machine.
//
// Usage: go test -run '^$' -bench ... -benchmem . | go run ./scripts/benchjson [-parent FILE]
//
// -parent embeds the benchmarks of an earlier record (the parent
// commit's, measured on the same machine just before) as "parent", so
// one file carries a before/after pair from one machine.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

// Record is one benchmark's measurement.
type Record struct {
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Host stamps the machine the numbers came from, so a baseline diff
// that crosses hardware is visible as such instead of reading as a
// regression. CPU/goos/goarch come from the bench output's own header
// lines; the rest from this process, which runs on the same machine.
type Host struct {
	CPU        string `json:"cpu,omitempty"`
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

// File is the emitted document.
type File struct {
	Note string `json:"note"`
	Host Host   `json:"host"`
	// ScalingValid is false when the run had a single CPU core: the
	// parallel benchmarks (portfolio, sharded frontier, runner pool)
	// then measure scheduling overhead, not scaling, and must not be
	// compared against multi-core baselines.
	ScalingValid bool              `json:"scaling_valid"`
	Benchmarks   map[string]Record `json:"benchmarks"`
	// Parent holds the same set measured on the parent commit on the
	// same machine just before, when -parent was given.
	Parent map[string]Record `json:"parent,omitempty"`
}

var lineRE = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op(.*)$`)
var pairRE = regexp.MustCompile(`([\d.]+) (\S+)`)

func main() {
	parent := flag.String("parent", "", "record of the parent commit to embed as \"parent\"")
	flag.Parse()
	out := File{
		Note:         "Benchmark trajectory, written by scripts/bench.sh; lowest-ns/op sample per benchmark. Compare against docs/PERFORMANCE.md.",
		ScalingValid: runtime.NumCPU() > 1,
		Host: Host{
			Cores:      runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion:  runtime.Version(),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
		},
		Benchmarks: map[string]Record{},
	}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		// The bench header overrides the runtime view where present:
		// it describes the process that actually ran the benchmarks.
		for _, h := range []struct {
			prefix string
			dst    *string
		}{{"cpu: ", &out.Host.CPU}, {"goos: ", &out.Host.GOOS}, {"goarch: ", &out.Host.GOARCH}} {
			if strings.HasPrefix(line, h.prefix) {
				*h.dst = strings.TrimSpace(strings.TrimPrefix(line, h.prefix))
			}
		}
		m := lineRE.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		name := strings.TrimPrefix(m[1], "Benchmark")
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		rec := Record{NsPerOp: ns}
		for _, pm := range pairRE.FindAllStringSubmatch(m[3], -1) {
			v, err := strconv.ParseFloat(pm[1], 64)
			if err != nil {
				continue
			}
			switch pm[2] {
			case "allocs/op":
				rec.AllocsPerOp = v
			case "B/op":
				rec.BytesPerOp = v
			default:
				if rec.Metrics == nil {
					rec.Metrics = map[string]float64{}
				}
				rec.Metrics[pm[2]] = v
			}
		}
		if prev, ok := out.Benchmarks[name]; ok && prev.NsPerOp <= rec.NsPerOp {
			continue
		}
		out.Benchmarks[name] = rec
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(out.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	if *parent != "" {
		data, err := os.ReadFile(*parent)
		var p File
		if err == nil {
			err = json.Unmarshal(data, &p)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson: -parent:", err)
			os.Exit(1)
		}
		out.Parent = p.Benchmarks
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
