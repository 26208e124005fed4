package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/engine"
	"repro/internal/mcamodel"
)

// satScopes are the sat-sweep grid's model scopes, PaperScope last.
func satScopes() []mcamodel.Scope {
	return []mcamodel.Scope{
		{PNodes: 2, VNodes: 2, Values: 3, States: 3, Msgs: 2, IntBitwidth: 3},
		{PNodes: 3, VNodes: 2, Values: 3, States: 3, Msgs: 2, IntBitwidth: 3},
		{PNodes: 3, VNodes: 2, Values: 4, States: 2, Msgs: 2, IntBitwidth: 4},
		mcamodel.PaperScope(),
	}
}

// satCell is one grid cell: an encoding at a scope asserting consensus
// at one trace state (0 = the final state).
type satCell struct {
	encoding string
	scope    mcamodel.Scope
	assert   int
	enc      *mcamodel.Encoding
}

func (c satCell) name() string {
	return fmt.Sprintf("%s/%s/assert_state=%d", c.encoding, c.scope, c.assert)
}

// satGrid builds every cell of the grid in a fixed order and returns
// the build time of each encoding in milliseconds.
func satGrid() ([]satCell, []float64, error) {
	var cells []satCell
	var buildMS []float64
	builders := []func(mcamodel.Scope) (*mcamodel.Encoding, error){mcamodel.BuildNaive, mcamodel.BuildOptimized}
	for _, sc := range satScopes() {
		for _, build := range builders {
			t0 := time.Now()
			enc, err := build(sc)
			if err != nil {
				return nil, nil, err
			}
			buildMS = append(buildMS, float64(time.Since(t0).Nanoseconds())/1e6)
			for k := 0; k <= sc.States; k++ {
				variant := enc
				if k > 0 {
					if variant, err = enc.WithAssertState(k); err != nil {
						return nil, nil, err
					}
				}
				cells = append(cells, satCell{encoding: enc.Name, scope: sc, assert: k, enc: variant})
			}
		}
	}
	return cells, buildMS, nil
}

// satRef is the pinned reference verdict of one grid cell.
type satRef struct {
	Cell      string `json:"cell"`
	Status    string `json:"status"`
	SATStatus string `json:"sat_status"`
	Clauses   int    `json:"clauses"`
	Vars      int    `json:"vars"`
}

//go:embed satsweep_ref.json
var satRefJSON []byte

// loadSatRef reads the pinned reference and requires it to cover
// exactly the cells of the grid.
func loadSatRef(cells []satCell) (map[string]satRef, error) {
	var refs []satRef
	if err := json.Unmarshal(satRefJSON, &refs); err != nil {
		return nil, fmt.Errorf("sat-sweep reference: %w", err)
	}
	byCell := map[string]satRef{}
	for _, r := range refs {
		byCell[r.Cell] = r
	}
	for _, c := range cells {
		if _, ok := byCell[c.name()]; !ok {
			return nil, fmt.Errorf("sat-sweep reference has no entry for %s", c.name())
		}
	}
	if len(byCell) != len(cells) || len(refs) != len(cells) {
		return nil, fmt.Errorf("sat-sweep reference has %d entries, the grid %d cells", len(refs), len(cells))
	}
	return byCell, nil
}

// buildSatRef verifies every cell of the grid once and writes the
// reference to path. Before writing it checks that every verdict is
// conclusive, that the naive and optimized encodings agree on the SAT
// status of each scope and assert state, and that the engine's clause
// and variable counts equal those of a translation-only pass.
func buildSatRef(path string) error {
	cells, _, err := satGrid()
	if err != nil {
		return err
	}
	var scenarios []engine.Scenario
	for _, c := range cells {
		scenarios = append(scenarios, engine.Scenario{Name: c.name(), Model: c.enc})
	}
	runner := engine.NewRunner(engine.RunnerOptions{Workers: 1, Engine: engine.SAT{}})
	results, _ := runner.Run(context.Background(), scenarios)
	type key struct {
		scope  mcamodel.Scope
		assert int
	}
	first := map[key]satRef{}
	var b bytes.Buffer
	b.WriteString("[\n")
	for i, res := range results {
		c := cells[i]
		r := satRef{
			Cell:      c.name(),
			Status:    res.Status.String(),
			SATStatus: res.SATStatus.String(),
			Clauses:   res.Stats.Clauses,
			Vars:      res.Stats.PrimaryVars + res.Stats.AuxVars,
		}
		if res.Status != engine.StatusHolds && res.Status != engine.StatusViolated {
			return fmt.Errorf("%s: inconclusive verdict %s: %v", r.Cell, r.Status, res.Err)
		}
		if m := mcamodel.MeasureTranslation(c.enc); m.Clauses != r.Clauses || m.PrimaryVars+m.AuxVars != r.Vars {
			return fmt.Errorf("%s: engine counts %d clauses %d vars, translation-only pass %d and %d",
				r.Cell, r.Clauses, r.Vars, m.Clauses, m.PrimaryVars+m.AuxVars)
		}
		k := key{c.scope, c.assert}
		if sib, ok := first[k]; ok && sib.SATStatus != r.SATStatus {
			return fmt.Errorf("%s is %s but %s is %s", r.Cell, r.SATStatus, sib.Cell, sib.SATStatus)
		}
		first[k] = r
		line, err := json.Marshal(r)
		if err != nil {
			return err
		}
		b.Write(line)
		if i < len(results)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("]\n")
	return os.WriteFile(path, b.Bytes(), 0o644)
}

// satSweep verifies the assert-state grids of the naive and optimized
// encodings at every scope with a Runner, one scenario at a time, on
// the default one-shot SAT engine. The seed orders the grid.
type satSweep struct {
	cfg       config
	cells     []satCell
	refs      map[string]satRef
	scenarios []engine.Scenario
	got       []satRecord

	buildMS                      []float64
	translate, solve             time.Duration
	clauses, vars                int
	conflicts, propagations      int64
	allocBytes                   uint64
	gcCycles                     uint32
	tracedVerdicts, tracedPasses int
}

type satRecord struct {
	index     int
	status    string
	satStatus string
	clauses   int
	vars      int
}

func (w *satSweep) setup(ctx context.Context) error {
	var err error
	if w.cells, w.buildMS, err = satGrid(); err != nil {
		return err
	}
	if w.refs, err = loadSatRef(w.cells); err != nil {
		return err
	}
	// Warm up on every cell of the smallest scope, so that set-up costs
	// the same for every seed; then the seed orders the grid.
	runner := engine.NewRunner(engine.RunnerOptions{Workers: 1, Engine: engine.SAT{}})
	var warm []engine.Scenario
	for _, c := range w.cells {
		if c.scope == satScopes()[0] {
			warm = append(warm, engine.Scenario{Name: "warm-up", Model: c.enc})
		}
	}
	runner.Run(ctx, warm)
	rng := seededRand(w.cfg.seed, "sat-sweep")
	rng.Shuffle(len(w.cells), func(a, b int) { w.cells[a], w.cells[b] = w.cells[b], w.cells[a] })
	for _, c := range w.cells {
		w.scenarios = append(w.scenarios, engine.Scenario{Name: c.name(), Model: c.enc})
	}
	return nil
}

func (w *satSweep) pass(ctx context.Context, tr *tracer) (passStats, error) {
	var ps passStats
	var ms0, ms1 runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&ms0)
	}
	runner := engine.NewRunner(engine.RunnerOptions{Workers: 1, Engine: engine.SAT{}})
	start := time.Now()
	last := start
	for res := range runner.Stream(ctx, w.scenarios) {
		// One worker verifies the cells in order, so the gap between
		// consecutive results is one Verify.
		now := time.Now()
		ps.latMS = append(ps.latMS, float64(now.Sub(last).Nanoseconds())/1e6)
		if tr != nil {
			// The engine reports its translate and solve times; they
			// are placed back to back from the start of the verdict.
			root := tr.record("verdict", last, now, -1, res.Index)
			solveStart := last.Add(res.Stats.TranslateTime)
			tr.record("relalg.translate", last, solveStart, root, res.Index)
			tr.record("sat.solve", solveStart, solveStart.Add(res.Stats.SolveTime), root, res.Index)
			w.translate += res.Stats.TranslateTime
			w.solve += res.Stats.SolveTime
			w.clauses += res.Stats.Clauses
			w.vars += res.Stats.PrimaryVars + res.Stats.AuxVars
			w.conflicts += res.Stats.Conflicts
			w.propagations += res.Stats.Propagations
		}
		last = now
		w.got = append(w.got, satRecord{
			index:     res.Index,
			status:    res.Status.String(),
			satStatus: res.SATStatus.String(),
			clauses:   res.Stats.Clauses,
			vars:      res.Stats.PrimaryVars + res.Stats.AuxVars,
		})
	}
	ps.wall = time.Since(start)
	ps.verdicts = len(w.scenarios)
	if tr != nil {
		runtime.ReadMemStats(&ms1)
		w.allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
		w.gcCycles += ms1.NumGC - ms0.NumGC
		w.tracedVerdicts += ps.verdicts
		w.tracedPasses++
	}
	return ps, nil
}

func (w *satSweep) layers(ctx context.Context, tr *tracer, m metrics) error {
	n := float64(w.tracedVerdicts)
	m.set("mcamodel.build_ms", quantile(w.buildMS, 0.5), "ms")
	m.set("relalg.translate_ms", float64(w.translate.Nanoseconds())/1e6/n, "ms")
	m.set("relalg.clauses", float64(w.clauses)/n, "count")
	m.set("relalg.vars", float64(w.vars)/n, "count")
	m.set("sat.solve_ms", float64(w.solve.Nanoseconds())/1e6/n, "ms")
	m.set("sat.conflicts", float64(w.conflicts)/n, "count")
	m.set("sat.propagations", float64(w.propagations)/n, "count")
	m.set("sat.props_per_s", float64(w.propagations)/w.solve.Seconds(), "1/s")
	m.set("runtime.alloc_bytes_per_verdict", float64(w.allocBytes)/n, "B")
	m.set("runtime.gc_cycles", float64(w.gcCycles)/float64(w.tracedPasses), "count")
	return nil
}

// check compares every verdict with the pinned reference of its cell:
// status, SAT status, clause count and variable count.
func (w *satSweep) check(ctx context.Context) (int, int, error) {
	failed := 0
	for _, g := range w.got {
		name := w.cells[g.index].name()
		r := w.refs[name]
		if g.status != r.Status || g.satStatus != r.SATStatus || g.clauses != r.Clauses || g.vars != r.Vars {
			failed++
			if failed <= 5 {
				fmt.Printf("sat-sweep: MISMATCH %s: got %s/%s %d clauses %d vars, reference %s/%s %d clauses %d vars\n",
					name, g.status, g.satStatus, g.clauses, g.vars, r.Status, r.SATStatus, r.Clauses, r.Vars)
			}
		}
	}
	return len(w.got), failed, nil
}

func (w *satSweep) peakRSSMB() (float64, error) { return vmHWM("self") }

func (w *satSweep) close() {}
