package main

import (
	"context"
	"fmt"

	"repro/internal/engine"
	"repro/internal/gen"
)

// smallProfiles are the gen profiles of the served workloads' documents,
// used in strict rotation so every seed gets the same shape mix: tiny
// two-agent spaces, three-agent single-item spaces (the costliest, a
// few milliseconds), and faulty networks that Auto routes to the
// Simulation engine. None carries a relational model.
func smallProfiles() []gen.Profile {
	base := gen.Profile{
		Topologies:      []string{"line", "ring", "star", "complete", "random"},
		Utilities:       []string{"submodular-residual", "flat"},
		ReleaseProb:     0.5,
		BidsPerRoundMax: 2,
		TargetFull:      0.5,
		QueueDepths:     []int{1},
		MaxStates:       gen.IntRange{Min: 200000, Max: 200000},
	}
	two, three, faulty := base, base, base
	two.Agents = gen.IntRange{Min: 2, Max: 2}
	two.Items = gen.IntRange{Min: 1, Max: 2}
	three.Agents = gen.IntRange{Min: 3, Max: 3}
	three.Items = gen.IntRange{Min: 1, Max: 1}
	faulty.Agents = gen.IntRange{Min: 2, Max: 3}
	faulty.Items = gen.IntRange{Min: 1, Max: 2}
	faulty.FaultProb = 1
	faulty.DropMax = 0.2
	faulty.DelayMax = 2
	return []gen.Profile{two, three, faulty}
}

// doc is one distinct scenario document of a served workload.
type doc struct {
	scenario engine.Scenario
	body     []byte // canonical scenario JSON
	key      string // CacheKey under the Auto engine
	ref      []byte // reference result, normalized (filled by reference)
}

// docSource hands out scenario documents that are distinct by content
// address, generated in batches from the seed.
type docSource struct {
	seed     int64
	stream   string
	profiles []gen.Profile
	batch    int
	pending  []engine.Scenario
	seen     map[string]bool
	docs     []*doc
}

func newDocSource(seed int64, stream string) *docSource {
	return &docSource{seed: seed, stream: stream, profiles: smallProfiles(), seen: map[string]bool{}}
}

const docBatch = 64

// next returns a document no earlier call returned.
func (d *docSource) next() (*doc, error) {
	for {
		if len(d.pending) == 0 {
			seed := seededRand(d.seed, fmt.Sprintf("%s/%d", d.stream, d.batch)).Int63()
			d.batch++
			var per [][]engine.Scenario
			for _, p := range d.profiles {
				ss, err := gen.Generate(p, seed, docBatch)
				if err != nil {
					return nil, err
				}
				per = append(per, ss)
			}
			for i := 0; i < docBatch; i++ {
				for _, ss := range per {
					d.pending = append(d.pending, ss[i])
				}
			}
		}
		s := d.pending[0]
		d.pending = d.pending[1:]
		key, err := engine.CacheKey(&s, engine.Auto{})
		if err != nil {
			return nil, err
		}
		if d.seen[key] {
			continue
		}
		d.seen[key] = true
		s.Name = fmt.Sprintf("%s-%d", d.stream, len(d.docs))
		body, err := engine.EncodeScenario(&s)
		if err != nil {
			return nil, err
		}
		dc := &doc{scenario: s, body: body, key: key}
		d.docs = append(d.docs, dc)
		return dc, nil
	}
}

// reference verifies every document handed out so far in-process with
// engine.Auto, the engine the servers run by default.
func (d *docSource) reference(ctx context.Context) error {
	for _, dc := range d.docs {
		if dc.ref != nil {
			continue
		}
		res := engine.Auto{}.Verify(ctx, dc.scenario)
		ref, err := normalized(res)
		if err != nil {
			return err
		}
		dc.ref = ref
	}
	return nil
}

// normalized encodes a result without the fields that legitimately
// differ between a fresh verification, a cache hit and a remote one:
// wall and phase times, the cached flag and the batch index.
func normalized(res engine.Result) ([]byte, error) {
	res.Index = -1
	res.Cached = false
	res.Stats.Wall = 0
	res.Stats.TranslateTime = 0
	res.Stats.SolveTime = 0
	return engine.EncodeResult(&res)
}

// normalizedBody decodes a result document and normalizes it.
func normalizedBody(body []byte) ([]byte, error) {
	res, err := engine.DecodeResult(body)
	if err != nil {
		return nil, err
	}
	return normalized(res)
}
