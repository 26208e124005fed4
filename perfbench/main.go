// Command perfbench is the repository benchmark. It drives four
// workloads through the layers' public entry points — in-process
// engine.Verify and engine.Runner calls for the batch workloads, the
// real mcaserved binary over loopback for the served ones — checks every
// verdict against a reference computed outside the timed window, and
// prints every metric by name with its unit. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}.
//
// An untraced run (-trace 0) reports the end-to-end metrics of the
// chosen workload. A traced run (-trace 1) runs every workload with
// spans recorded around the benchmark's own calls into each layer and
// reports the per-layer metrics of all of them; the spans are written
// to the output directory. Nothing inside the program is instrumented.
//
// Usage (normally through run.py, which builds the binaries first):
//
//	perfbench -workload exhaustive -seed 1 -seconds 15 -trace 0 \
//	    -mcaserved .bench_build/bin/mcaserved -out .bench_build/run
//	perfbench -mkpool perfbench/exhaustive_pool.json
//	perfbench -repin perfbench/exhaustive_pool.json
//	perfbench -mksatref perfbench/satsweep_ref.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setupReps is how many times each run sets its workload up; setup_s
// is the median.
const setupReps = 5

// minSamples is the fewest latency samples an untraced run reports a
// p90 from: ten beyond the percentile.
const minSamples = 100

// Concurrency of the served workloads. serve drives mcaserved with one
// closed-loop client: two clients doubled its p90 under a one-core
// background load while one did not. fleet-sweep runs two workers with
// one dispatch slot each.
const (
	serveClients = 1
	fleetWorkers = 2
	fleetSlots   = 1
)

// workload is one benchmark workload. setup builds the inputs, starts
// any processes and warms up; pass runs the fixed seeded work list
// once; check compares every verdict of the run with its reference.
type workload interface {
	setup(ctx context.Context) error
	pass(ctx context.Context, tr *tracer) (passStats, error)
	// layers adds the workload's per-layer metrics (traced runs only);
	// it runs after the timed passes.
	layers(ctx context.Context, tr *tracer, m metrics) error
	check(ctx context.Context) (attempted, failed int, err error)
	peakRSSMB() (float64, error)
	close()
}

// passStats is one pass over the work list.
type passStats struct {
	verdicts int
	wall     time.Duration
	// latMS holds one latency sample per verdict, in milliseconds.
	latMS []float64
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	server   string // mcaserved binary
	out      string // directory for temp dirs and trace files
	nproc    int
}

var workloadNames = []string{"exhaustive", "sat-sweep", "serve", "fleet-sweep"}

func newWorkload(name string, cfg config) (workload, error) {
	switch name {
	case "exhaustive":
		return &exhaustive{cfg: cfg}, nil
	case "sat-sweep":
		return &satSweep{cfg: cfg}, nil
	case "serve":
		return &serve{cfg: cfg}, nil
	case "fleet-sweep":
		return &fleetSweep{cfg: cfg}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want %s)", name, strings.Join(workloadNames, ", "))
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", 10, "timed window per workload, in seconds")
	traceFlag := flag.Int("trace", 0, "1 = traced run: per-layer metrics of every workload")
	flag.StringVar(&cfg.server, "mcaserved", "", "path to the mcaserved binary (serve, fleet-sweep)")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for temp dirs and trace files")
	mkpool := flag.String("mkpool", "", "screen the exhaustive pool and write it to this file, then exit")
	repin := flag.String("repin", "", "re-pin the state counts of the exhaustive pool in this file, then exit")
	mksatref := flag.String("mksatref", "", "verify the sat-sweep grid and write its reference to this file, then exit")
	flag.Parse()

	tools := []struct {
		path string
		run  func(string) error
	}{{*mkpool, buildPool}, {*repin, repinPool}, {*mksatref, buildSatRef}}
	for _, tool := range tools {
		if tool.path == "" {
			continue
		}
		if err := tool.run(tool.path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	cfg.trace = *traceFlag == 1
	cfg.nproc = runtime.NumCPU()
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// validate refuses to oversubscribe the machine: the benchmark never
// runs more client threads, connections or dispatch slots than there
// are CPUs.
func (cfg config) validate() error {
	if cfg.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	// A traced run runs every workload.
	runs := func(name string) bool { return cfg.trace || cfg.workload == name }
	if runs("serve") && serveClients > cfg.nproc {
		return fmt.Errorf("serve needs %d clients, more than nproc=%d", serveClients, cfg.nproc)
	}
	if runs("fleet-sweep") && fleetWorkers*fleetSlots > cfg.nproc {
		return fmt.Errorf("fleet-sweep needs %d dispatch slots, more than nproc=%d", fleetWorkers*fleetSlots, cfg.nproc)
	}
	return nil
}

func run(cfg config) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	names := []string{cfg.workload}
	if _, err := newWorkload(cfg.workload, cfg); err != nil {
		return err
	}
	if cfg.trace {
		// The per-layer metrics span every workload, so a traced run
		// measures each of them, the chosen one first.
		for _, n := range workloadNames {
			if n != cfg.workload {
				names = append(names, n)
			}
		}
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	printHost(cfg)

	ctx := context.Background()
	all := metrics{}
	var attempted, failed int
	correct := true
	for _, name := range names {
		res, err := runWorkload(ctx, name, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		attempted += res.attempted
		failed += res.failed
		if res.failed > 0 {
			correct = false
		}
		fmt.Printf("%s/failed_frac %.6f ratio (%d of %d)\n", name, float64(res.failed)/float64(max(res.attempted, 1)), res.failed, res.attempted)
		for _, k := range res.metrics.keys() {
			v := res.metrics[k]
			fmt.Printf("%s/%s %.6g %s\n", name, k, v.Value, v.Unit)
			if cfg.trace {
				all[name+"."+k] = v
			} else {
				all[k] = v
			}
		}
	}
	out, err := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{correct, attempted, failed, all})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !correct {
		return fmt.Errorf("%d of %d verdicts failed or differ from the reference", failed, attempted)
	}
	return nil
}

type workloadResult struct {
	attempted, failed int
	metrics           metrics
}

// runWorkload sets the workload up setupReps times (keeping the last),
// runs whole passes until the timed window is spent, checks every
// verdict and collects the metrics. A traced run alternates untraced
// and traced passes, so trace.overhead_frac compares the two within
// one process.
func runWorkload(ctx context.Context, name string, cfg config) (workloadResult, error) {
	var res workloadResult
	var setups []float64
	var w workload
	for rep := 0; rep < setupReps; rep++ {
		if w != nil {
			w.close()
		}
		var err error
		if w, err = newWorkload(name, cfg); err != nil {
			return res, err
		}
		// Every set-up starts from a collected heap, not from the
		// garbage of the one before.
		runtime.GC()
		start := time.Now()
		if err := w.setup(ctx); err != nil {
			w.close()
			return res, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer w.close()

	tr := newTracer()
	var plain, traced []passStats
	window := time.Duration(cfg.seconds) * time.Second
	if cfg.trace {
		// A traced run measures every workload; half the window each
		// keeps it well inside the run time limit.
		window /= 2
	}
	deadline := time.Now().Add(window)
	// Whole passes run until the window is spent and, untraced, until
	// latency_p90_ms has at least minSamples samples behind it.
	for i := 0; time.Now().Before(deadline) || len(plain) == 0 || (cfg.trace && len(traced) == 0) ||
		(!cfg.trace && len(samples(plain)) < minSamples); i++ {
		on := cfg.trace && i%2 == 1
		var t *tracer
		if on {
			t = tr
		}
		ps, err := w.pass(ctx, t)
		if err != nil {
			return res, fmt.Errorf("pass %d: %w", i, err)
		}
		if on {
			traced = append(traced, ps)
		} else {
			plain = append(plain, ps)
		}
	}
	for _, ps := range append(plain, traced...) {
		res.attempted += ps.verdicts
	}

	m := metrics{}
	if cfg.trace {
		if err := w.layers(ctx, tr, m); err != nil {
			return res, fmt.Errorf("layers: %w", err)
		}
		p50plain := quantile(samples(plain), 0.5)
		p50traced := quantile(samples(traced), 0.5)
		m.set("trace.overhead_frac", p50traced/p50plain-1, "ratio")
		path := filepath.Join(cfg.out, fmt.Sprintf("trace-%s-seed%d.json", name, cfg.seed))
		if err := tr.write(path); err != nil {
			return res, err
		}
		tr.printSelfTimes(name)
	} else {
		lat := samples(plain)
		var rates []float64
		for _, ps := range plain {
			rates = append(rates, float64(ps.verdicts)/ps.wall.Seconds())
		}
		m.set("setup_s", quantile(setups, 0.5), "s")
		m.set("verdicts_per_s", quantile(rates, 0.5), "1/s")
		m.set("latency_p50_ms", quantile(lat, 0.5), "ms")
		m.set("latency_p90_ms", quantile(lat, 0.9), "ms")
		rss, err := w.peakRSSMB()
		if err != nil {
			return res, err
		}
		m.set("peak_rss_mb", rss, "MiB")
		fmt.Printf("%s: %d passes, %d timed samples, set-ups %.3f s\n", name, len(plain), len(lat), setups)
	}

	attempted, failed, err := w.check(ctx)
	if err != nil {
		return res, fmt.Errorf("check: %w", err)
	}
	if attempted != res.attempted {
		return res, fmt.Errorf("check covered %d verdicts, the passes made %d", attempted, res.attempted)
	}
	res.failed = failed
	res.metrics = m
	return res, nil
}

func samples(passes []passStats) []float64 {
	var out []float64
	for _, ps := range passes {
		out = append(out, ps.latMS...)
	}
	return out
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

func (m metrics) keys() []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// quantile is the linear-interpolation quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// seededRand derives an independent stream for one use of the seed.
func seededRand(seed int64, stream string) *rand.Rand {
	h := uint64(seed) ^ 0x9e3779b97f4a7c15
	for _, c := range stream {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	return rand.New(rand.NewSource(int64(h)))
}

// printHost stamps the output with the machine and the inputs.
func printHost(cfg config) {
	host := map[string]any{
		"nproc":      cfg.nproc,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"load1":      load1(),
		"seed":       cfg.seed,
		"commit":     commit(),
		"workload":   cfg.workload,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"clients":    serveClients,
		"slots":      fleetWorkers * fleetSlots,
	}
	data, _ := json.Marshal(host)
	fmt.Printf("host %s\n", data)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func load1() string {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	return strings.Fields(string(data))[0]
}

// commit reads the checkout's HEAD without running git; a checkout
// that is not a repository reports "unknown".
func commit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if data, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(data))
	}
	return "unknown"
}
