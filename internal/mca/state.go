package mca

import "math/bits"

// appendVarint appends a zig-zag-free signed int encoding (values here
// are small and non-negative after ranking; negative ids use a bias).
func appendVarint(buf []byte, v int64) []byte {
	u := uint64(v+1) << 1 // bias -1 (NoAgent) to non-negative
	for u >= 0x80 {
		buf = append(buf, byte(u)|0x80)
		u >>= 7
	}
	return append(buf, byte(u))
}

// AppendCanonical appends a compact deterministic binary encoding of the
// agent state with every timestamp passed through rank, for a system of
// n agents (the information-timestamp vector is encoded as n fixed
// slots). This is the reference serializer for the explorer's canonical
// keys: the incremental hasher (ContentHash + AppendTimeSlots) must
// distinguish exactly the states this encoding distinguishes, and the
// explore package pins that equivalence with a cross-check flag and a
// fuzz test.
//
// Timestamp slots that double as presence markers (block entries,
// information timestamps) encode 0 for "absent" and 1+rank(t) when
// present; stored information times are always positive, so the two
// ranges cannot collide.
func (a *Agent) AppendCanonical(buf []byte, rank func(int) int, n int) []byte {
	buf = appendVarint(buf, int64(a.id))
	for _, bi := range a.view {
		buf = appendVarint(buf, bi.Bid)
		buf = appendVarint(buf, int64(bi.Winner))
		buf = appendVarint(buf, int64(rank(bi.Time)))
	}
	buf = appendVarint(buf, int64(len(a.bundle)))
	for _, j := range a.bundle {
		buf = appendVarint(buf, int64(j))
	}
	for j, bl := range a.blocked {
		if bl {
			bi := a.block[j]
			buf = appendVarint(buf, bi.Bid)
			buf = appendVarint(buf, int64(bi.Winner))
			buf = appendVarint(buf, int64(1+rank(bi.Time)))
		} else {
			buf = appendVarint(buf, 0)
		}
	}
	buf = appendVarint(buf, int64(rank(a.clock)))
	for k := 0; k < n; k++ {
		if t := infoAt(a.infoTime, AgentID(k)); t != 0 {
			buf = appendVarint(buf, int64(1+rank(t)))
		} else {
			buf = appendVarint(buf, 0)
		}
	}
	return buf
}

// AppendMessageCanonical appends a compact deterministic binary encoding
// of a message with timestamps ranked, for a system of n agents.
func AppendMessageCanonical(buf []byte, m Message, rank func(int) int, n int) []byte {
	buf = appendVarint(buf, int64(m.Sender))
	buf = appendVarint(buf, int64(m.Receiver))
	for _, bi := range m.View {
		buf = appendVarint(buf, bi.Bid)
		buf = appendVarint(buf, int64(bi.Winner))
		buf = appendVarint(buf, int64(rank(bi.Time)))
	}
	for k := 0; k < n; k++ {
		if t := infoAt(m.InfoTimes, AgentID(k)); t != 0 {
			buf = appendVarint(buf, int64(1+rank(t)))
		} else {
			buf = appendVarint(buf, 0)
		}
	}
	return appendVarint(buf, -1)
}

// AgentState is a deep snapshot of an agent's mutable state, used by the
// exhaustive explorer to branch over message interleavings.
type AgentState struct {
	View    []BidInfo
	Bundle  []ItemID
	Blocked []bool
	Block   []BidInfo
	Clock   int
	// InfoTime is the dense information-timestamp vector (indexed by
	// AgentID; missing tail entries mean 0).
	InfoTime []int
}

// SaveState captures the agent's mutable state.
func (a *Agent) SaveState() AgentState {
	var s AgentState
	a.SaveStateInto(&s)
	return s
}

// SaveStateInto captures the agent's mutable state into s, reusing s's
// existing storage — the allocation-free form the explorers use on
// their per-branch hot path.
func (a *Agent) SaveStateInto(s *AgentState) {
	s.View = append(s.View[:0], a.view...)
	s.Bundle = append(s.Bundle[:0], a.bundle...)
	s.Blocked = append(s.Blocked[:0], a.blocked...)
	s.Block = append(s.Block[:0], a.block...)
	s.Clock = a.clock
	s.InfoTime = append(s.InfoTime[:0], a.infoTime...)
}

// RestoreState reinstates a previously saved state. The agent's own
// storage is reused (the explorers restore millions of times on their
// hot path); the AgentState is not aliased afterwards.
func (a *Agent) RestoreState(s AgentState) {
	a.rev++
	copy(a.view, s.View)
	a.bundle = append(a.bundle[:0], s.Bundle...)
	copy(a.blocked, s.Blocked)
	copy(a.block, s.Block)
	a.clock = s.Clock
	a.infoTime = append(a.infoTime[:0], s.InfoTime...)
}

// AppendState appends a compact binary encoding of the agent's full
// mutable state (absolute timestamps, unlike AppendCanonical) to buf.
// DecodeState reverses it. The parallel explorer stores frontier states
// this way: one pointer-free byte slice per global state instead of a
// tree of slices, which the garbage collector never has to scan.
func (a *Agent) AppendState(buf []byte) []byte {
	for _, bi := range a.view {
		buf = appendVarint(buf, bi.Bid)
		buf = appendVarint(buf, int64(bi.Winner))
		buf = appendVarint(buf, int64(bi.Time))
	}
	buf = appendVarint(buf, int64(len(a.bundle)))
	for _, j := range a.bundle {
		buf = appendVarint(buf, int64(j))
	}
	for j, bl := range a.blocked {
		if bl {
			bi := a.block[j]
			buf = appendVarint(buf, int64(j))
			buf = appendVarint(buf, bi.Bid)
			buf = appendVarint(buf, int64(bi.Winner))
			buf = appendVarint(buf, int64(bi.Time))
		}
	}
	buf = appendVarint(buf, -1) // blocked-section terminator
	buf = appendVarint(buf, int64(a.clock))
	buf = appendVarint(buf, int64(len(a.infoTime)))
	for _, t := range a.infoTime {
		buf = appendVarint(buf, int64(t))
	}
	return buf
}

// readVarint reverses appendVarint.
func readVarint(buf []byte) (int64, []byte) {
	var u uint64
	var shift uint
	for i, b := range buf {
		u |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return int64(u>>1) - 1, buf[i+1:]
		}
		shift += 7
	}
	panic("mca: truncated state encoding")
}

// DecodeState restores the agent's mutable state from an AppendState
// encoding, returning the unconsumed remainder of buf.
func (a *Agent) DecodeState(buf []byte) []byte {
	a.rev++
	var v int64
	for j := range a.view {
		bi := &a.view[j]
		bi.Bid, buf = readVarint(buf)
		v, buf = readVarint(buf)
		bi.Winner = AgentID(v)
		v, buf = readVarint(buf)
		bi.Time = int(v)
	}
	v, buf = readVarint(buf)
	a.bundle = a.bundle[:0]
	for i := int64(0); i < v; i++ {
		var j int64
		j, buf = readVarint(buf)
		a.bundle = append(a.bundle, ItemID(j))
	}
	for j := range a.blocked {
		a.blocked[j] = false
		a.block[j] = BidInfo{}
	}
	for {
		v, buf = readVarint(buf)
		if v < 0 {
			break
		}
		bi := &a.block[v]
		a.blocked[v] = true
		bi.Bid, buf = readVarint(buf)
		var w int64
		w, buf = readVarint(buf)
		bi.Winner = AgentID(w)
		w, buf = readVarint(buf)
		bi.Time = int(w)
	}
	v, buf = readVarint(buf)
	a.clock = int(v)
	v, buf = readVarint(buf)
	a.infoTime = a.infoTime[:0]
	for i := int64(0); i < v; i++ {
		var t int64
		t, buf = readVarint(buf)
		a.infoTime = append(a.infoTime, int(t))
	}
	return buf
}

// Items returns the number of items the agent bids on.
func (a *Agent) Items() int { return a.items }

// AppendTimes appends every logical timestamp in the agent's state to
// ts. The explorer builds a dense rank over the combined list: two
// global states that differ only by a time-order-preserving relabeling
// of clocks are behaviorally equivalent, so hashing the ranked form
// turns the unbounded clock space into a finite quotient.
func (a *Agent) AppendTimes(ts []int) []int {
	for _, bi := range a.view {
		ts = append(ts, bi.Time)
	}
	for _, bi := range a.block {
		ts = append(ts, bi.Time)
	}
	for _, t := range a.infoTime {
		if t != 0 {
			ts = append(ts, t)
		}
	}
	return append(ts, a.clock)
}

// AppendMessageTimes appends every timestamp in a message to ts.
func AppendMessageTimes(ts []int, m Message) []int {
	for _, bi := range m.View {
		ts = append(ts, bi.Time)
	}
	for _, t := range m.InfoTimes {
		if t != 0 {
			ts = append(ts, t)
		}
	}
	return ts
}

// AppendTimeSlots appends the agent's timestamp slots to ts in the
// canonical key's fixed order, for n agents: view, block (blocked or
// not, as in AppendTimes; an unblocked entry holds time 0), clock, then
// n information times with -1 for an absent one.
func (a *Agent) AppendTimeSlots(ts []int, n int) []int {
	for _, bi := range a.view {
		ts = append(ts, bi.Time)
	}
	for _, bi := range a.block {
		ts = append(ts, bi.Time)
	}
	return appendInfoSlots(append(ts, a.clock), a.infoTime, n)
}

// AppendMessageTimeSlots is AppendTimeSlots for a message.
func AppendMessageTimeSlots(ts []int, m Message, n int) []int {
	for _, bi := range m.View {
		ts = append(ts, bi.Time)
	}
	return appendInfoSlots(ts, m.InfoTimes, n)
}

func appendInfoSlots(ts, info []int, n int) []int {
	for k := 0; k < n; k++ {
		t := infoAt(info, AgentID(k))
		if t == 0 {
			t = -1 // absent
		}
		ts = append(ts, t)
	}
	return ts
}

// Canonical-key hashing: 128 bits as two independently seeded 64-bit
// lanes, folded one word at a time. Agent and message content hashes
// are XOR-combined across components by the explorers, so each
// component binds its identity (agent id, edge, queue position) into
// its own digest.
const (
	hashMul1 = 0x9e3779b97f4a7c15 // 2^64 / golden ratio, odd
	hashMul2 = 0xc2b2ae3d27d4eb4f // xxhash PRIME64_2, odd
)

// FoldHash mixes one 64-bit word into a two-lane hash state.
func FoldHash(h [2]uint64, v uint64) [2]uint64 {
	h[0] = bits.RotateLeft64(h[0]^v, 27) * hashMul1
	h[1] = bits.RotateLeft64(h[1]^v, 31) * hashMul2
	return h
}

// ContentHash digests the agent's timestamp-free content: identity,
// view bids and winners, bundle, and outbid bookkeeping. Together with
// the ranked AppendTimeSlots this carries exactly the information
// AppendCanonical serializes, split so the explorers can cache it per
// agent (validated by Rev) and recompute only the delivery's receiver.
func (a *Agent) ContentHash() [2]uint64 {
	h := [2]uint64{uint64(a.id) + 1, ^uint64(a.id)}
	for _, bi := range a.view {
		h = FoldHash(h, uint64(bi.Bid))
		h = FoldHash(h, uint64(bi.Winner))
	}
	h = FoldHash(h, uint64(len(a.bundle)))
	for _, j := range a.bundle {
		h = FoldHash(h, uint64(j))
	}
	for j, bl := range a.blocked {
		if bl {
			bi := a.block[j]
			h = FoldHash(h, uint64(bi.Bid))
			h = FoldHash(h, uint64(bi.Winner)+3)
		} else {
			h = FoldHash(h, 1)
		}
	}
	return h
}

// MessageContentHash digests a message's timestamp-free payload. The
// sender and receiver are deliberately excluded: a queued message's
// endpoints are its edge's endpoints, and the network binds the edge
// identity when folding queue contents into a state key — which lets a
// broadcast compute one payload digest shared by every receiver. The
// network computes it once at send time (messages are immutable), so
// canonical keys never re-serialize queue contents.
func MessageContentHash(m Message) [2]uint64 {
	h := [2]uint64{0x9e3779b97f4a7c15, 0x2545f4914f6cdd1d}
	for _, bi := range m.View {
		h = FoldHash(h, uint64(bi.Bid))
		h = FoldHash(h, uint64(bi.Winner))
	}
	return h
}
