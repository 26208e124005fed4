package explore

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
)

// TestSpillCursorErrorsAreLatched drives the segment reader over
// damaged files directly: a missing segment errors at open, and a
// truncated one latches a read error instead of masquerading as EOF —
// the two failure shapes injections keep exposing.
func TestSpillCursorErrorsAreLatched(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()

	missing := &spillStore{path: filepath.Join(dir, "gone.seg"), count: 2, nodes: make([]*pathNode, 2)}
	if _, err := missing.openCursor(); err == nil {
		t.Fatal("missing segment opened")
	}
	if err := missing.forEach(func([2]uint64, *pathNode) {}); err == nil {
		t.Fatal("forEach over a missing segment reported success")
	}

	// Three records promised, one and a half on disk.
	short := filepath.Join(dir, "short.seg")
	if err := os.WriteFile(short, make([]byte, spillRecordSize+spillRecordSize/2), 0o644); err != nil {
		t.Fatal(err)
	}
	s := &spillStore{path: short, count: 3, nodes: make([]*pathNode, 3)}
	var seen int
	err := s.forEach(func([2]uint64, *pathNode) { seen++ })
	if err == nil {
		t.Fatalf("truncated segment scanned cleanly (%d records)", seen)
	}
	if seen != 1 {
		t.Fatalf("saw %d records before the truncation, want 1", seen)
	}
	cur, err := s.openCursor()
	if err != nil {
		t.Fatal(err)
	}
	defer cur.close()
	for cur.valid {
		cur.next()
	}
	if cur.err == nil {
		t.Fatal("cursor ended without latching the read error")
	}
}

// TestSpillSegmentLossMidRunIsHardError is the end-to-end scrub pin:
// losing spilled state mid-run (segments truncated underneath the
// exploration, as a failing disk would) must surface as an error from
// CheckParallelFrom — never a panic, and never a silently-wrong
// verdict computed over partial dedup state.
func TestSpillSegmentLossMidRunIsHardError(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	var n atomic.Int32
	opts := Options{
		SpillDir:    dir,
		SpillStates: 1,
		Cancel: func() bool {
			// After the run is warmed up, repeatedly truncate every
			// segment under the (per-run temp) spill tree.
			if n.Add(1) > 3 {
				filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
					if err == nil && !info.IsDir() && filepath.Ext(path) == ".seg" && info.Size() > spillRecordSize {
						os.Truncate(path, spillRecordSize/2)
					}
					return nil
				})
			}
			return false
		},
	}
	v, rs, err := CheckParallelFrom(line3Agents(), graph.Line(3), opts, 2, nil, false)
	if err == nil {
		t.Fatalf("segment loss went unnoticed: verdict %+v rs=%v", v, rs != nil)
	}
	if rs != nil {
		t.Fatal("a run that lost spill state must not hand out a resumable state")
	}
}

// TestDecodeRunStateErrorIsTyped: every bytes-caused DecodeRunState
// failure wraps ErrCorruptRunState so callers up the stack (checkpoint
// decode, mcacheck -resume) can match it and advise a clean re-verify.
func TestDecodeRunStateErrorIsTyped(t *testing.T) {
	t.Parallel()
	_, rs := cappedState(t, line3Agents, graph.Line(3), Options{MaxStates: 100}, 2)
	enc := EncodeRunState(rs)

	for name, doc := range map[string][]byte{
		"nil":      nil,
		"magic":    []byte("XXARS1\nrest"),
		"truncate": enc[:len(enc)/2],
		"trailing": append(append([]byte{}, enc...), 0x01),
	} {
		_, err := DecodeRunState(doc)
		if err == nil {
			t.Fatalf("%s: decoded", name)
		}
		if !errors.Is(err, ErrCorruptRunState) {
			t.Fatalf("%s: error %v does not wrap ErrCorruptRunState", name, err)
		}
	}
	// Bit flips through the body must be typed too (or, rarely, decode —
	// never panic).
	for i := len(enc) / 4; i < len(enc); i += 101 {
		bad := append([]byte(nil), enc...)
		bad[i] ^= 0x10
		if _, err := DecodeRunState(bad); err != nil && !errors.Is(err, ErrCorruptRunState) {
			t.Fatalf("flip at %d: untyped error %v", i, err)
		}
	}
}

// TestDecodeRunStateRejectsV1: a version-1 document carries keys from
// the older key function. It is refused with ErrStaleRunState, which
// callers also match as ErrCorruptRunState, and the message says to
// re-verify.
func TestDecodeRunStateRejectsV1(t *testing.T) {
	t.Parallel()
	_, rs := cappedState(t, line3Agents, graph.Line(3), Options{MaxStates: 100}, 2)
	enc := EncodeRunState(rs)
	v1 := append([]byte(runStateMagicV1), enc[len(runStateMagic):]...)
	_, err := DecodeRunState(v1)
	if !errors.Is(err, ErrStaleRunState) || !errors.Is(err, ErrCorruptRunState) {
		t.Fatalf("v1 document: error %v, want ErrStaleRunState wrapping ErrCorruptRunState", err)
	}
	if !strings.Contains(err.Error(), "re-verify") {
		t.Fatalf("v1 document: error %q lacks the re-verify hint", err)
	}
	if _, err := DecodeRunState(enc); err != nil {
		t.Fatalf("current document rejected: %v", err)
	}
}
