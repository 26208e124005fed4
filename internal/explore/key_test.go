package explore

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/mca"
	"repro/internal/netsim"
)

// keyState is one captured global state with its own key scratch. The
// digest cache is validated by Agent.Rev, and clones copy Rev, so each
// state's agents must keep to one scratch.
type keyState struct {
	agents []*mca.Agent
	net    *netsim.Network
	keys   keyScratch
}

// captureKeyStates captures n states of the ExploreSerial benchmark
// instance (three agents on a ring, two items, flat utility) along
// seeded random delivery walks from the initial state.
func captureKeyStates(n int) []*keyState {
	rng := rand.New(rand.NewSource(1))
	pol := mca.Policy{Target: 2, Utility: mca.FlatUtility{}, Rebid: mca.RebidOnChange}
	var out []*keyState
	for len(out) < n {
		agents := agentsWithBases([][]int64{{12, 8}, {8, 12}, {4, 8}}, pol)
		net := netsim.New(graph.Ring(3), false)
		net.LimitQueueDepth(2)
		for _, a := range agents {
			if a.BidPhase() {
				net.BroadcastAgent(a)
			}
		}
		for step := 0; step < 40 && len(out) < n; step++ {
			pending := net.PendingInto(nil)
			if len(pending) == 0 {
				break
			}
			applyDelivery(agents, net, pending[rng.Intn(len(pending))], true)
			s := &keyState{net: net.Clone()}
			for _, a := range agents {
				s.agents = append(s.agents, a.Clone())
			}
			out = append(out, s)
		}
	}
	return out
}

// TestBitRankerMatchesSortedRank: over random time multisets — dense,
// sparse up to 1<<20, spread over many 64-bit words, with absent (-1)
// slots mixed in — the bitmap rank of every present time equals its
// binary-search rank in the sorted unique set, and reset counts the
// distinct times.
func TestBitRankerMatchesSortedRank(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(7))
	var r bitRanker
	for iter := 0; iter < 2000; iter++ {
		maxT := []int{8, 64, 200, 5000, 1 << 20}[iter%5]
		ts := make([]int, 1+rng.Intn(120))
		for i := range ts {
			if rng.Intn(8) == 0 {
				ts[i] = -1
			} else {
				ts[i] = rng.Intn(maxT + 1)
			}
		}
		var uniq []int
		for _, v := range ts {
			if v >= 0 {
				uniq = append(uniq, v)
			}
		}
		sort.Ints(uniq)
		uniq = slices.Compact(uniq)
		if r.reset(ts); r.distinct != len(uniq) {
			t.Fatalf("iter %d: reset counted %d distinct times, want %d", iter, r.distinct, len(uniq))
		}
		for _, v := range ts {
			if v < 0 {
				continue
			}
			if got, want := r.rank(v), sort.SearchInts(uniq, v); got != want {
				t.Fatalf("iter %d: rank(%d) = %d, want %d", iter, v, got, want)
			}
		}
	}
}

// TestFoldWideRanks: from 65,535 distinct times on, the packed fold
// switches to 32-bit fields, and there it stays injective where a
// 16-bit packing would truncate (ranks r and r+65536 alias in 16 bits).
// The field width is folded first, so the same ranks packed at two
// widths never alias either.
func TestFoldWideRanks(t *testing.T) {
	t.Parallel()
	for _, c := range []struct {
		distinct int
		width    uint
	}{{0, 16}, {65534, 16}, {65535, 32}, {1 << 20, 32}, {1<<32 - 2, 32}, {1<<32 - 1, 64}} {
		if got := fieldWidth(c.distinct); got != c.width {
			t.Fatalf("fieldWidth(%d) = %d, want %d", c.distinct, got, c.width)
		}
	}

	// Universe 0..69999: rank(t) = t, so slots reach ranks past 65535.
	const distinct = 70000
	var wide bitRanker
	universe := make([]int, distinct)
	for i := range universe {
		universe[i] = i
	}
	wide.reset(universe)
	if fieldWidth(wide.distinct) != 32 {
		t.Fatalf("%d distinct times: width %d, want 32", wide.distinct, fieldWidth(wide.distinct))
	}
	seed := [2]uint64{1, 2}
	rng := rand.New(rand.NewSource(3))
	seen := make(map[[2]uint64][]int)
	check := func(slots []int) {
		h := wide.fold(seed, slots)
		if prev, ok := seen[h]; ok && !slices.Equal(prev, slots) {
			t.Fatalf("fold collision: %v and %v", prev, slots)
		}
		seen[h] = append([]int(nil), slots...)
	}
	for i := 0; i < 5000; i++ {
		slots := make([]int, 1+rng.Intn(9))
		for j := range slots {
			slots[j] = rng.Intn(distinct+1) - 1 // -1 is an absent slot
		}
		check(slots)
		// The 16-bit alias of the same sequence: ranks moved by 65536
		// where that stays in range.
		alias := append([]int(nil), slots...)
		for j, v := range alias {
			if v >= 0 && v+65536 < distinct {
				alias[j] += 65536
			} else if v >= 65536 {
				alias[j] -= 65536
			}
		}
		check(alias)
	}

	var narrow bitRanker
	narrow.reset(universe[:10])
	if narrow.fold(seed, []int{0, 1}) == wide.fold(seed, []int{0, 1}) {
		t.Fatal("16- and 32-bit packings of the same ranks alias")
	}
}

// TestKeyAllocFree: once a scratch has seen a state, computing its key
// again allocates nothing — the slot buffer, the rank bitmap and the
// digest cache are all reused.
func TestKeyAllocFree(t *testing.T) {
	states := captureKeyStates(64)
	for _, s := range states {
		s.keys.key(s.agents, s.net)
	}
	allocs := testing.AllocsPerRun(10, func() {
		for _, s := range states {
			s.keys.key(s.agents, s.net)
		}
	})
	if allocs != 0 {
		t.Fatalf("warmed keyScratch.key allocates %.1f times per pass, want 0", allocs)
	}
}
