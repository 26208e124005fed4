package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	"repro/internal/engine"
	"repro/internal/gen"
)

// The exhaustive workload draws its scenarios from a pool screened
// offline: gen candidates whose exhaustive exploration visited between
// poolMinStates and poolMaxStates states. A run picks one scenario per
// cost stratum of the pool, so every seed gets different scenarios with
// the same cost profile. The pool also pins each scenario's reference
// verdict (status, violation and exact state count), computed outside
// any timed window.
//
// Membership (profile, index) and the screening cost that orders the
// strata are fixed once screened. A change that shrinks state spaces
// on purpose, such as partial-order reduction, re-pins only the state
// counts with -repin, so the parent and the change still run the same
// scenarios.

const (
	poolMinStates = 10000
	poolMaxStates = 100000
	// poolSeed and poolCandidates are the gen seed and the number of
	// three-agent candidates the committed pool was screened from.
	poolSeed       = 1
	poolCandidates = 900
)

// exhaustiveProfiles are the fault-free, model-free gen profiles the
// pool is screened from: three agents over every topology, and four
// agents over the sparse ones (denser four-agent graphs blow past
// poolMaxStates). Channels hold one message, which keeps the state
// spaces in range.
func exhaustiveProfiles() map[string]gen.Profile {
	base := gen.Profile{
		Utilities:       []string{"submodular-residual", "flat"},
		ReleaseProb:     0.5,
		BidsPerRoundMax: 2,
		TargetFull:      0.5,
		QueueDepths:     []int{1},
		MaxStates:       gen.IntRange{Min: 200000, Max: 200000},
	}
	a, b := base, base
	a.Agents = gen.IntRange{Min: 3, Max: 3}
	a.Items = gen.IntRange{Min: 2, Max: 3}
	a.Topologies = []string{"line", "ring", "star", "complete", "random"}
	b.Agents = gen.IntRange{Min: 4, Max: 4}
	b.Items = gen.IntRange{Min: 2, Max: 2}
	b.Topologies = []string{"line", "star"}
	return map[string]gen.Profile{"a": a, "b": b}
}

// poolEntry is one screened scenario: profile key and gen index under
// the pool seed, its reference verdict, and the verification time
// measured at screening (the faster of two runs), which orders the
// strata. Absolute times differ between machines; the order of the
// entries by cost barely does.
type poolEntry struct {
	Profile   string `json:"profile"`
	Index     int    `json:"index"`
	States    int    `json:"states"`
	Status    string `json:"status"`
	Violation string `json:"violation,omitempty"`
	Micros    int64  `json:"us"`
}

type poolFile struct {
	Seed    int64       `json:"seed"`
	Entries []poolEntry `json:"entries"`
}

//go:embed exhaustive_pool.json
var poolJSON []byte

func loadPool() (poolFile, error) {
	var p poolFile
	if err := json.Unmarshal(poolJSON, &p); err != nil {
		return p, fmt.Errorf("exhaustive pool: %w", err)
	}
	if len(p.Entries) == 0 {
		return p, fmt.Errorf("exhaustive pool is empty")
	}
	return p, nil
}

// poolScenarios regenerates the pool's scenarios from gen.
func poolScenarios(p poolFile) ([]engine.Scenario, error) {
	profiles := exhaustiveProfiles()
	need := map[string]int{}
	for _, e := range p.Entries {
		need[e.Profile] = max(need[e.Profile], e.Index+1)
	}
	generated := map[string][]engine.Scenario{}
	for key, n := range need {
		prof, ok := profiles[key]
		if !ok {
			return nil, fmt.Errorf("exhaustive pool: unknown profile %q", key)
		}
		ss, err := gen.Generate(prof, p.Seed, n)
		if err != nil {
			return nil, err
		}
		generated[key] = ss
	}
	out := make([]engine.Scenario, len(p.Entries))
	for i, e := range p.Entries {
		out[i] = generated[e.Profile][e.Index]
	}
	return out, nil
}

// stratify picks n pool entries, one from each of n equal-count strata
// of the pool sorted by verification cost, and returns their positions
// in a seeded order. Stratifying on cost rather than state count keeps
// the latency quantiles of every seed's corpus close together: four-
// agent states cost more than three-agent ones.
func stratify(entries []poolEntry, n int, rng *rand.Rand) []int {
	order := make([]int, len(entries))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return entries[order[a]].Micros < entries[order[b]].Micros })
	picks := make([]int, 0, n)
	for s := 0; s < n; s++ {
		lo, hi := s*len(order)/n, (s+1)*len(order)/n
		picks = append(picks, order[lo+rng.Intn(hi-lo)])
	}
	rng.Shuffle(len(picks), func(a, b int) { picks[a], picks[b] = picks[b], picks[a] })
	return picks
}

// buildPool screens candidates of every exhaustive profile (a third as
// many for the four-agent profile, whose candidates land in range twice
// as often) and writes the in-range ones to path. Each kept scenario is
// also checked on the sharded frontier engine; disagreements are
// reported.
func buildPool(path string) error {
	ctx := context.Background()
	pf := poolFile{Seed: poolSeed}
	keys := []string{"a", "b"}
	counts := map[string]int{"a": poolCandidates, "b": poolCandidates / 3}
	profiles := exhaustiveProfiles()
	var frontierAgree, frontierChecked int
	for _, key := range keys {
		ss, err := gen.Generate(profiles[key], poolSeed, counts[key])
		if err != nil {
			return err
		}
		start := time.Now()
		for i, s := range ss {
			t0 := time.Now()
			res := engine.Explicit{}.Verify(ctx, s)
			took := time.Since(t0)
			if res.Err != nil || !res.Stats.Exhausted || res.Stats.States < poolMinStates || res.Stats.States > poolMaxStates {
				continue
			}
			t0 = time.Now()
			engine.Explicit{}.Verify(ctx, s)
			took = min(took, time.Since(t0))
			e := poolEntry{Profile: key, Index: i, States: res.Stats.States, Status: res.Status.String(), Micros: took.Microseconds()}
			if res.Violation.String() != "none" {
				e.Violation = res.Violation.String()
			}
			par := engine.Explicit{Workers: 2}.Verify(ctx, s)
			frontierChecked++
			if par.Status == res.Status {
				frontierAgree++
			}
			pf.Entries = append(pf.Entries, e)
		}
		fmt.Fprintf(os.Stderr, "pool: profile %s: %d candidates screened in %v\n", key, len(ss), time.Since(start).Round(time.Millisecond))
	}
	fmt.Fprintf(os.Stderr, "pool: kept %d entries; frontier engine agreed on status for %d of %d\n", len(pf.Entries), frontierAgree, frontierChecked)
	return writePool(path, pf)
}

// repinPool re-verifies every entry of the pool file at path and
// rewrites its state count, keeping membership, screening cost, status
// and violation. An entry whose status or violation changes, or whose
// exploration no longer exhausts, is an error: a reduction may shrink
// the state space but not change the verdict.
func repinPool(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var pf poolFile
	if err := json.Unmarshal(data, &pf); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	all, err := poolScenarios(pf)
	if err != nil {
		return err
	}
	changed := 0
	for i, s := range all {
		e := &pf.Entries[i]
		res := engine.Explicit{}.Verify(context.Background(), s)
		violation := res.Violation.String()
		if e.Violation == "" && violation == "none" {
			violation = ""
		}
		if res.Err != nil || !res.Stats.Exhausted || res.Status.String() != e.Status || violation != e.Violation {
			return fmt.Errorf("pool entry %s#%d: got %s/%s (exhausted %v, err %v), pinned %s/%s",
				e.Profile, e.Index, res.Status, res.Violation, res.Stats.Exhausted, res.Err, e.Status, e.Violation)
		}
		if e.States != res.Stats.States {
			e.States = res.Stats.States
			changed++
		}
	}
	fmt.Fprintf(os.Stderr, "pool: re-pinned %d of %d state counts\n", changed, len(pf.Entries))
	return writePool(path, pf)
}

// writePool writes the pool one entry per line, which keeps it
// diffable.
func writePool(path string, pf poolFile) error {
	var b bytes.Buffer
	fmt.Fprintf(&b, "{\"seed\": %d, \"entries\": [\n", pf.Seed)
	for i, e := range pf.Entries {
		line, err := json.Marshal(e)
		if err != nil {
			return err
		}
		b.Write(line)
		if i < len(pf.Entries)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("]}\n")
	return os.WriteFile(path, b.Bytes(), 0o644)
}
