package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/fleet"
)

const (
	// fleetCells is the number of cells in one /sweep: as many as the
	// repository's example sweep document,
	// examples/scenarios/policy-faults-sweep.json (3 × 3 × 2).
	fleetCells = 18
	// fleetPass is the number of sweeps in one pass.
	fleetPass = 8
)

// fleetSweep drives an mcaserved coordinator and two workers over
// loopback. The harness sends one /sweep at a time; every cell is new
// to the fleet, so each is dispatched, verified on a worker and put
// into the coordinator's memory and disk cache tiers.
type fleetSweep struct {
	cfg     config
	workers []*server
	coord   *server
	dir     string
	src     *docSource
	client  *http.Client
	sent    []*sweepRequest
	n       int // sweeps planned so far

	// traced-pass accumulators
	statusDelta           fleet.Stats
	cellWallNS, sweepWall float64
}

type sweepRequest struct {
	name   string
	body   []byte
	cells  []*doc
	latMS  float64
	status int
	resp   []byte
	err    error
}

func (w *fleetSweep) setup(ctx context.Context) error {
	var err error
	if w.dir, err = os.MkdirTemp(w.cfg.out, "fleet-cache-"); err != nil {
		return err
	}
	slots := strconv.Itoa(fleetSlots)
	var peers []string
	for i := 0; i < fleetWorkers; i++ {
		s, err := startServer(ctx, w.cfg, fmt.Sprintf("fleet-worker%d", i), "-role", "worker", "-fleetslots", slots)
		if err != nil {
			return err
		}
		w.workers = append(w.workers, s)
		peers = append(peers, s.url)
	}
	w.coord, err = startServer(ctx, w.cfg, "fleet-coordinator", "-role", "coordinator",
		"-peers", strings.Join(peers, ","), "-fleetslots", slots, "-cachedir", w.dir)
	if err != nil {
		return err
	}
	w.src = newDocSource(w.cfg.seed, "fleet")
	w.client = &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
	// Warm up with one pass worth of sweeps.
	for i := 0; i < fleetPass; i++ {
		r, err := w.plan()
		if err != nil {
			return err
		}
		if w.sweep(ctx, r, nil); r.err != nil || r.status != http.StatusOK {
			return fmt.Errorf("warm-up sweep: status %d: %v", r.status, r.err)
		}
	}
	return nil
}

// plan builds the next sweep document: a bare base and one axis whose
// variants are whole first-seen scenarios.
func (w *fleetSweep) plan() (*sweepRequest, error) {
	w.n++
	r := &sweepRequest{name: fmt.Sprintf("fleet-%d", w.n)}
	type variant struct {
		Name     string          `json:"name"`
		Scenario json.RawMessage `json:"scenario"`
	}
	var variants []variant
	for i := 0; i < fleetCells; i++ {
		d, err := w.src.next()
		if err != nil {
			return nil, err
		}
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(d.body, &fields); err != nil {
			return nil, err
		}
		delete(fields, "version")
		delete(fields, "name")
		patch, err := json.Marshal(fields)
		if err != nil {
			return nil, err
		}
		variants = append(variants, variant{Name: fmt.Sprintf("c%02d", i), Scenario: patch})
		r.cells = append(r.cells, d)
	}
	body, err := json.Marshal(map[string]any{
		"version": engine.SchemaVersion,
		"name":    r.name,
		"base":    map[string]any{},
		"axes":    []any{map[string]any{"axis": "cell", "variants": variants}},
	})
	r.body = body
	return r, err
}

// sweep posts one sweep document and reads the NDJSON stream to its
// summary line.
func (w *fleetSweep) sweep(ctx context.Context, r *sweepRequest, tr *tracer) {
	root := tr.begin("verdict", -1, w.n)
	sp := tr.begin("http.sweep", root, w.n)
	t0 := time.Now()
	r.status, r.resp, r.err = post(ctx, w.client, w.coord.url+"/sweep", r.body)
	r.latMS = float64(time.Since(t0).Nanoseconds()) / 1e6
	tr.end(sp)
	tr.end(root)
}

func (w *fleetSweep) pass(ctx context.Context, tr *tracer) (passStats, error) {
	var reqs []*sweepRequest
	for i := 0; i < fleetPass; i++ {
		r, err := w.plan()
		if err != nil {
			return passStats{}, err
		}
		reqs = append(reqs, r)
	}
	var before fleet.Stats
	if tr != nil {
		if err := getJSON(ctx, w.coord.url+"/fleet/status", &before); err != nil {
			return passStats{}, err
		}
	}
	var ps passStats
	start := time.Now()
	for _, r := range reqs {
		w.sweep(ctx, r, tr)
		ps.latMS = append(ps.latMS, r.latMS)
	}
	ps.wall = time.Since(start)
	ps.verdicts = fleetPass * fleetCells
	w.sent = append(w.sent, reqs...)
	if tr != nil {
		var after fleet.Stats
		if err := getJSON(ctx, w.coord.url+"/fleet/status", &after); err != nil {
			return ps, err
		}
		w.statusDelta.Dispatches += after.Dispatches - before.Dispatches
		w.statusDelta.Completed += after.Completed - before.Completed
		w.statusDelta.Retries += after.Retries - before.Retries
		w.statusDelta.Rejections += after.Rejections - before.Rejections
		w.statusDelta.LocalFallbacks += after.LocalFallbacks - before.LocalFallbacks
		w.statusDelta.BreakerFastFails += after.BreakerFastFails - before.BreakerFastFails
		for _, r := range reqs {
			results, _, err := parseSweep(r.resp)
			if err != nil {
				continue // counted by check
			}
			for _, res := range results {
				w.cellWallNS += float64(res.Stats.Wall.Nanoseconds())
			}
			w.sweepWall += r.latMS * 1e6
		}
	}
	return ps, nil
}

// parseSweep splits a /sweep NDJSON reply into its results (by index)
// and its summary line.
func parseSweep(resp []byte) (map[int]engine.Result, engine.Summary, error) {
	results := map[int]engine.Result{}
	sc := bufio.NewScanner(bytes.NewReader(resp))
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if summary, ok := bytes.CutPrefix(line, []byte(`{"summary":`)); ok {
			sum, err := engine.DecodeSummary(bytes.TrimSuffix(summary, []byte("}")))
			return results, sum, err
		}
		res, err := engine.DecodeResult(line)
		if err != nil {
			return nil, engine.Summary{}, err
		}
		results[res.Index] = res
	}
	return nil, engine.Summary{}, fmt.Errorf("sweep reply has no summary line")
}

func (w *fleetSweep) layers(ctx context.Context, tr *tracer, m metrics) error {
	d := w.statusDelta
	m.set("fleet.useful_ratio", float64(d.Completed)/float64(d.Dispatches), "ratio")
	m.set("fleet.retries", float64(d.Retries), "count")
	m.set("fleet.rejections", float64(d.Rejections), "count")
	m.set("fleet.fallbacks", float64(d.LocalFallbacks), "count")
	m.set("fleet.fast_fails", float64(d.BreakerFastFails), "count")
	m.set("fleet.overhead_frac", 1-w.cellWallNS/(w.sweepWall*float64(fleetWorkers*fleetSlots)), "ratio")
	for i, d := range w.src.docs {
		sp := tr.begin("fleet.unit_codec", -1, i)
		data, err := fleet.EncodeWorkUnit(i, engine.Auto{}, &d.scenario)
		if err == nil {
			_, _, _, err = fleet.DecodeWorkUnit(data)
		}
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	m.set("fleet.unit_codec_us", tr.medianUS("fleet.unit_codec"), "us")
	return codecAndCacheLayers(ctx, w.cfg, w.src, tr, m, false)
}

// check verifies every sweep's cells in-process with a Runner and
// requires the reply's summary to be byte-identical to the Runner's,
// wall time aside, and every result line to match its cell's result.
func (w *fleetSweep) check(ctx context.Context) (int, int, error) {
	runner := engine.NewRunner(engine.RunnerOptions{Workers: min(2, w.cfg.nproc), Engine: engine.Auto{}})
	attempted, failed := 0, 0
	for _, r := range w.sent {
		attempted += len(r.cells)
		bad, why := w.checkSweep(ctx, runner, r)
		failed += bad
		if bad > 0 && failed <= 5*fleetCells {
			fmt.Printf("fleet-sweep: MISMATCH %s: %s\n", r.name, why)
		}
	}
	return attempted, failed, nil
}

// checkSweep returns how many cells of one sweep failed, and why.
func (w *fleetSweep) checkSweep(ctx context.Context, runner *engine.Runner, r *sweepRequest) (int, string) {
	if r.err != nil || r.status != http.StatusOK {
		return len(r.cells), fmt.Sprintf("status %d: %v", r.status, r.err)
	}
	got, gotSum, err := parseSweep(r.resp)
	if err != nil {
		return len(r.cells), err.Error()
	}
	scenarios, err := engine.ExpandSweep(r.body)
	if err != nil {
		return len(r.cells), err.Error()
	}
	want, wantSum := runner.Run(ctx, scenarios)
	gotSum.Wall, wantSum.Wall = 0, 0
	a, err1 := engine.EncodeSummary(&gotSum)
	b, err2 := engine.EncodeSummary(&wantSum)
	if err1 != nil || err2 != nil || !bytes.Equal(a, b) {
		return len(r.cells), fmt.Sprintf("summary %s, reference %s", a, b)
	}
	bad := 0
	for i := range want {
		g, ok := got[i]
		x, err1 := normalized(g)
		y, err2 := normalized(want[i])
		if !ok || err1 != nil || err2 != nil || !bytes.Equal(x, y) {
			bad++
		}
	}
	return bad, fmt.Sprintf("%d result lines differ from the reference", bad)
}

func (w *fleetSweep) peakRSSMB() (float64, error) {
	var sum float64
	for _, s := range append([]*server{w.coord}, w.workers...) {
		mb, err := s.peakRSSMB()
		if err != nil {
			return 0, err
		}
		sum += mb
	}
	return sum, nil
}

func (w *fleetSweep) close() {
	w.coord.stop()
	for _, s := range w.workers {
		s.stop()
	}
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
}
