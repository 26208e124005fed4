package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/engine"
)

// corpusSize is the number of scenarios one exhaustive run verifies per
// pass: one per cost stratum of the pool.
const corpusSize = 40

// exhaustive verifies a stratified sample of the pool one scenario at a
// time in-process with the default (serial) Explicit engine — the
// mcacheck -scenario path: the scenario goes through the codec once at
// setup, then each timed verdict is one Verify.
type exhaustive struct {
	cfg       config
	scenarios []engine.Scenario
	refs      []poolEntry
	got       []verdictRecord

	// traced-pass accumulators
	states, lookups, probes, slots, entries int
	verifyTime                              time.Duration
	allocBytes                              uint64
	gcCycles                                uint32
	tracedVerdicts, tracedPasses            int
}

// verdictRecord is what a timed verdict is checked on.
type verdictRecord struct {
	index     int
	status    string
	violation string
	states    int
	exhausted bool
}

func (w *exhaustive) setup(ctx context.Context) error {
	pool, err := loadPool()
	if err != nil {
		return err
	}
	all, err := poolScenarios(pool)
	if err != nil {
		return err
	}
	for _, i := range stratify(pool.Entries, corpusSize, seededRand(w.cfg.seed, "exhaustive")) {
		doc, err := engine.EncodeScenario(&all[i])
		if err != nil {
			return err
		}
		s, err := engine.DecodeScenario(doc)
		if err != nil {
			return err
		}
		w.scenarios = append(w.scenarios, s)
		w.refs = append(w.refs, pool.Entries[i])
	}
	// Warm up on the pool's costliest scenario. It is the same for every
	// seed, so set-up time does not depend on the seed, and it is also
	// the pool's largest state space, so the peak heap it leaves behind
	// does not depend on which scenarios the seed picked.
	costliest := 0
	for i, e := range pool.Entries {
		if e.Micros > pool.Entries[costliest].Micros {
			costliest = i
		}
	}
	engine.Explicit{}.Verify(ctx, all[costliest])
	return nil
}

func (w *exhaustive) pass(ctx context.Context, tr *tracer) (passStats, error) {
	var ps passStats
	var ms0, ms1 runtime.MemStats
	start := time.Now()
	for i, s := range w.scenarios {
		// Each verdict starts from a collected heap, as a fresh mcacheck
		// process would, so one scenario's garbage does not tax the next.
		runtime.GC()
		if tr != nil {
			runtime.ReadMemStats(&ms0)
		}
		root := tr.begin("verdict", -1, i)
		sp := tr.begin("engine.verify/explore", root, i)
		t0 := time.Now()
		res := engine.Explicit{}.Verify(ctx, s)
		d := time.Since(t0)
		tr.end(sp)
		tr.end(root)
		ps.latMS = append(ps.latMS, float64(d.Nanoseconds())/1e6)
		w.got = append(w.got, verdictRecord{
			index:     i,
			status:    res.Status.String(),
			violation: res.Violation.String(),
			states:    res.Stats.States,
			exhausted: res.Stats.Exhausted,
		})
		if tr != nil {
			runtime.ReadMemStats(&ms1)
			w.allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
			w.gcCycles += ms1.NumGC - ms0.NumGC
			w.states += res.Stats.States
			w.verifyTime += d
			if v := res.ExplicitVerdict; v != nil {
				w.lookups += int(v.Store.Lookups)
				w.probes += int(v.Store.Probes)
				w.slots += v.Store.Slots
				w.entries += v.Store.Entries
			}
		}
	}
	ps.wall = time.Since(start)
	ps.verdicts = len(w.scenarios)
	if tr != nil {
		w.tracedVerdicts += ps.verdicts
		w.tracedPasses++
	}
	return ps, nil
}

func (w *exhaustive) layers(ctx context.Context, tr *tracer, m metrics) error {
	m.set("explore.states", float64(w.states)/float64(w.tracedPasses), "count")
	m.set("explore.states_per_s", float64(w.states)/w.verifyTime.Seconds(), "1/s")
	m.set("explore.probes_per_lookup", float64(w.probes)/float64(w.lookups), "ratio")
	m.set("explore.slots_per_state", float64(w.slots)/float64(w.entries), "ratio")
	m.set("runtime.alloc_bytes_per_verdict", float64(w.allocBytes)/float64(w.tracedVerdicts), "B")
	m.set("runtime.gc_cycles", float64(w.gcCycles)/float64(w.tracedPasses), "count")
	return nil
}

// check compares every verdict with the pool's reference: the same
// status and violation, full exhaustion, and the exact state count.
func (w *exhaustive) check(ctx context.Context) (int, int, error) {
	failed := 0
	for _, g := range w.got {
		ref := w.refs[g.index]
		violation := ref.Violation
		if violation == "" {
			violation = "none"
		}
		if g.status != ref.Status || g.violation != violation || g.states != ref.States || !g.exhausted {
			failed++
			if failed <= 5 {
				fmt.Printf("exhaustive: MISMATCH %s#%d: got %s/%s/%d states (exhausted %v), reference %s/%s/%d\n",
					ref.Profile, ref.Index, g.status, g.violation, g.states, g.exhausted, ref.Status, violation, ref.States)
			}
		}
	}
	return len(w.got), failed, nil
}

func (w *exhaustive) peakRSSMB() (float64, error) { return vmHWM("self") }

func (w *exhaustive) close() {}
