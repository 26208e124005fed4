package explore

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/mca"
	"repro/internal/netsim"
)

// keyScratch computes 128-bit canonical state keys incrementally. The
// key splits into two parts:
//
//   - a content part — everything except logical times — assembled by
//     XOR from per-component digests: per-agent hashes cached against
//     Agent.Rev, and restored by the explorers when they roll a delivery
//     back, so at most the receiver is re-digested per key; per-message
//     hashes are computed once at send time (messages are immutable);
//   - a time part — the dense rank of every logical timestamp — which
//     is global (one new timestamp can shift every rank) but sort-free:
//     one walk gathers the timestamp slots, a bitmap ranks them in O(1)
//     each, and the ranks are folded packed (bitRanker).
//
// The reference semantics live in referenceKey (AppendCanonical over a
// sorted universe); the crosscheck pins the incremental key to it.
// Keys are hashes; docs/PERFORMANCE.md gives the collision contract.
type keyScratch struct {
	times []int // timestamp slots (-1 absent)
	ranks bitRanker
	buf   []byte // reference-serializer scratch
	// Per-agent content-digest cache, validated by Agent.Rev.
	agentHash [][2]uint64
	agentRev  []uint64
	// Crosscheck state (zero-cost when disabled): every interval-th key
	// computation recomputes the key with cold caches and the reference
	// serializer, and checks both the cache coherence and the
	// incremental/reference key bijection seen so far this run.
	interval uint64
	calls    uint64
	incToRef map[[2]uint64][2]uint64
	refToInc map[[2]uint64][2]uint64
}

// mix128 finishes the key: each lane avalanches the combined content
// and time words through the splitmix64 finalizer, so the XOR algebra
// of the content part cannot cancel against the time part.
func mix128(c, t [2]uint64) [2]uint64 {
	return [2]uint64{mix64(c[0], t[0]), mix64(c[1], t[1])}
}

func mix64(a, b uint64) uint64 {
	x := a ^ bits.RotateLeft64(b, 32)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// testKeyOverride, when non-nil, post-processes every canonical key —
// a test-only hook used to force distinct states onto the same 128-bit
// key and pin the engines' collision behavior (states sharing a key
// are merged: the first explored representative stands for all of
// them, deterministically). Never set outside tests.
var testKeyOverride func([2]uint64) [2]uint64

// key computes the canonical state key with per-agent digest caching.
func (ks *keyScratch) key(agents []*mca.Agent, net *netsim.Network) [2]uint64 {
	var c [2]uint64
	for i, a := range agents {
		h := ks.digest(i, a)
		c[0] ^= h[0]
		c[1] ^= h[1]
	}
	k := ks.finish(c, agents, net)
	if ks.interval > 0 {
		ks.calls++
		if ks.calls%ks.interval == 0 {
			ks.crosscheck(agents, net, k)
		}
	}
	if testKeyOverride != nil {
		k = testKeyOverride(k)
	}
	return k
}

// finish folds the network content digest and the global time-rank part
// into the combined content hash c.
func (ks *keyScratch) finish(c [2]uint64, agents []*mca.Agent, net *netsim.Network) [2]uint64 {
	nh := net.ContentHash()
	c[0] ^= nh[0]
	c[1] ^= nh[1]

	n := len(agents)
	if ks.times == nil {
		ks.times = make([]int, 0, 64) // a state holds a few dozen slots
	}
	ks.times = ks.times[:0]
	for _, a := range agents {
		ks.times = a.AppendTimeSlots(ks.times, n)
	}
	ks.times = net.AppendTimeSlots(ks.times, n)
	ks.ranks.reset(ks.times)
	return mix128(c, ks.ranks.fold([2]uint64{0x452821e638d01377, 0xbe5466cf34e90c6c}, ks.times))
}

// digest returns agent i's content digest, recomputed only if the
// agent changed since it was cached (Rev starts at 1 and only grows).
func (ks *keyScratch) digest(i int, a *mca.Agent) [2]uint64 {
	for len(ks.agentHash) <= i {
		ks.agentHash = append(ks.agentHash, [2]uint64{})
		ks.agentRev = append(ks.agentRev, 0)
	}
	if ks.agentRev[i] != a.Rev() {
		ks.agentHash[i] = a.ContentHash()
		ks.agentRev[i] = a.Rev()
	}
	return ks.agentHash[i]
}

// restoreDigest reinstates h, agent i's digest before a delivery, once
// the delivery is rolled back (RestoreState bumps Rev).
func (ks *keyScratch) restoreDigest(i int, a *mca.Agent, h [2]uint64) {
	ks.agentHash[i], ks.agentRev[i] = h, a.Rev()
}

// bitRanker ranks times without sorting: a bitmap of the present times,
// each word with the count of times below it, so rank(t) is one
// popcount. It is regrown per state to that state's largest time.
type bitRanker struct {
	words    []rankWord
	distinct int
}

type rankWord struct {
	bits  uint64
	below int
}

// reset loads the present (non-negative) times of ts.
func (r *bitRanker) reset(ts []int) {
	r.words = r.words[:0]
	for _, t := range ts {
		if t < 0 {
			continue
		}
		for len(r.words) <= t>>6 {
			r.words = append(r.words, rankWord{})
		}
		r.words[t>>6].bits |= 1 << (uint(t) & 63)
	}
	r.distinct = 0
	for i := range r.words {
		r.words[i].below = r.distinct
		r.distinct += bits.OnesCount64(r.words[i].bits)
	}
}

func (r *bitRanker) rank(t int) int {
	w := &r.words[t>>6]
	return w.below + bits.OnesCount64(w.bits&(1<<(uint(t)&63)-1))
}

// fold folds 1+rank of every slot (0 if absent) into h, packed in
// fieldWidth(distinct)-bit fields after the width and slot count.
func (r *bitRanker) fold(h [2]uint64, slots []int) [2]uint64 {
	width := fieldWidth(r.distinct)
	h = mca.FoldHash(h, uint64(width)<<56|uint64(len(slots)))
	var acc uint64
	var shift uint
	for _, t := range slots {
		if t >= 0 {
			acc |= uint64(1+r.rank(t)) << shift
		}
		if shift += width; shift == 64 {
			h = mca.FoldHash(h, acc)
			acc, shift = 0, 0
		}
	}
	if shift != 0 {
		h = mca.FoldHash(h, acc)
	}
	return h
}

// fieldWidth picks 16-bit fields below 65,535 distinct times, 32-bit
// ones below 2^32-1 and whole words beyond, so no 1+rank is truncated.
func fieldWidth(distinct int) uint {
	w := uint(16)
	for w < 64 && uint64(distinct) >= 1<<w-1 {
		w *= 2
	}
	return w
}

// referenceKey is the serializer form of the canonical key: encode the
// ranked state with AppendCanonical/AppendMessageCanonical and hash the
// bytes (two-lane FNV-1a, as the pre-incremental explorer did). It
// distinguishes exactly the states key distinguishes — that equivalence
// is what the crosscheck and the key-equivalence fuzz test pin — and
// survives as the slow-path oracle.
func (ks *keyScratch) referenceKey(agents []*mca.Agent, net *netsim.Network) [2]uint64 {
	ks.times = ks.times[:0]
	for _, a := range agents {
		ks.times = a.AppendTimes(ks.times)
	}
	net.ForEachQueued(func(_ netsim.Edge, m mca.Message) {
		ks.times = mca.AppendMessageTimes(ks.times, m)
	})
	sort.Ints(ks.times)
	uniq := slices.Compact(ks.times)
	rank := func(t int) int { return sort.SearchInts(uniq, t) }
	n := len(agents)
	ks.buf = ks.buf[:0]
	for _, a := range agents {
		ks.buf = a.AppendCanonical(ks.buf, rank, n)
	}
	net.ForEachQueued(func(_ netsim.Edge, m mca.Message) {
		ks.buf = mca.AppendMessageCanonical(ks.buf, m, rank, n)
	})
	const (
		offset1 = 14695981039346656037
		offset2 = 1099511628211*31 + 7
		prime   = 1099511628211
	)
	h1, h2 := uint64(offset1), uint64(offset2)
	for _, b := range ks.buf {
		h1 = (h1 ^ uint64(b)) * prime
		h2 = (h2 ^ uint64(b)) * (prime + 2)
	}
	return [2]uint64{h1, h2}
}

// crosscheck validates one state's key three ways: the cached
// incremental key must equal a cold recomputation (cache coherence),
// and the incremental/reference key pair must extend a bijection over
// every state checked so far this run (partition equivalence with the
// serializer). Violations panic — they mean a stale digest cache or a
// divergence between the incremental hasher and the reference
// serializer, either of which would silently corrupt verification.
func (ks *keyScratch) crosscheck(agents []*mca.Agent, net *netsim.Network, k [2]uint64) {
	var c [2]uint64
	for _, a := range agents {
		h := a.ContentHash()
		c[0] ^= h[0]
		c[1] ^= h[1]
	}
	if cold := ks.finish(c, agents, net); cold != k {
		panic(fmt.Sprintf("explore: incremental key cache incoherent: cached %x, cold %x", k, cold))
	}
	ref := ks.referenceKey(agents, net)
	if ks.incToRef == nil {
		ks.incToRef = make(map[[2]uint64][2]uint64)
		ks.refToInc = make(map[[2]uint64][2]uint64)
	}
	if prev, ok := ks.incToRef[k]; ok && prev != ref {
		panic(fmt.Sprintf("explore: incremental key %x maps to reference keys %x and %x", k, prev, ref))
	}
	if prev, ok := ks.refToInc[ref]; ok && prev != k {
		panic(fmt.Sprintf("explore: reference key %x maps to incremental keys %x and %x", ref, prev, k))
	}
	ks.incToRef[k] = ref
	ks.refToInc[ref] = k
}
