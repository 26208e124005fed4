package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/engine"
)

// captureStderr runs fn with os.Stderr redirected to a pipe and
// returns what it wrote. run() prints operator-facing diagnostics
// there, and the corrupt-checkpoint hint is part of the contract.
func captureStderr(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stderr
	os.Stderr = w
	defer func() { os.Stderr = old }()
	fn()
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// cappedRunArgs is a scenario that trips the -maxstates cap so a
// checkpoint is written: 3 agents, 2 items, line topology is ~500
// states uncapped.
func cappedRunArgs(checkpoint string) []string {
	return []string{
		"-agents", "3", "-items", "2", "-topology", "line",
		"-workers", "2", "-maxstates", "100",
		"-checkpoint", checkpoint, "-trace=false",
	}
}

func TestCheckpointResumeLifecycle(t *testing.T) {
	cp := filepath.Join(t.TempDir(), "run.ckpt")
	if code := run(cappedRunArgs(cp)); code != 3 {
		t.Fatalf("capped run exit = %d, want 3 (inconclusive)", code)
	}
	if _, err := os.Stat(cp); err != nil {
		t.Fatalf("no checkpoint written: %v", err)
	}
	code := run([]string{"-resume", cp, "-maxstates", "500000", "-trace=false"})
	if code != 0 {
		t.Fatalf("resume exit = %d, want 0 (holds)", code)
	}
}

func TestResumeRejectsCorruptCheckpoint(t *testing.T) {
	cp := filepath.Join(t.TempDir(), "garbage.ckpt")
	if err := os.WriteFile(cp, []byte("not a checkpoint at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	var code int
	out := captureStderr(t, func() {
		code = run([]string{"-resume", cp, "-trace=false"})
	})
	if code != 2 {
		t.Fatalf("corrupt resume exit = %d, want 2", code)
	}
	if !strings.Contains(out, "corrupt or truncated") || !strings.Contains(out, "delete it and re-verify") {
		t.Fatalf("missing clean re-verify hint, stderr:\n%s", out)
	}
}

// TestResumeRejectsStaleRunState: a checkpoint whose run state carries
// the version-1 magic holds keys from an older key function, so resuming
// it would mix two key spaces. It must exit 2 with a re-verify hint.
func TestResumeRejectsStaleRunState(t *testing.T) {
	cp := filepath.Join(t.TempDir(), "v1.ckpt")
	if code := run(cappedRunArgs(cp)); code != 3 {
		t.Fatalf("capped run exit = %d, want 3 (inconclusive)", code)
	}
	data, err := os.ReadFile(cp)
	if err != nil {
		t.Fatal(err)
	}
	c, err := engine.DecodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	copy(c.State, "MCARS1\n")
	if data, err = engine.EncodeCheckpoint(c); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cp, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var code int
	out := captureStderr(t, func() {
		code = run([]string{"-resume", cp, "-maxstates", "500000", "-trace=false"})
	})
	if code != 2 {
		t.Fatalf("stale resume exit = %d, want 2", code)
	}
	if !strings.Contains(out, "older explorer version") || !strings.Contains(out, "re-verify") {
		t.Fatalf("missing stale-version re-verify hint, stderr:\n%s", out)
	}
}

// TestChaosCheckpointWriteDegradesOnResume is the end-to-end failure
// path: arm bit-flip injection on the checkpoint write, cap a run, and
// resume from the mangled file. The resume must fail with the typed
// error and the operator hint — never a panic, never a verdict
// computed from damaged state.
func TestChaosCheckpointWriteDegradesOnResume(t *testing.T) {
	cp := filepath.Join(t.TempDir(), "mangled.ckpt")
	args := append(cappedRunArgs(cp), "-chaos", "seed=1,flip=1")
	if code := run(args); code != 3 {
		t.Fatalf("capped chaos run exit = %d, want 3", code)
	}
	var code int
	out := captureStderr(t, func() {
		code = run([]string{"-resume", cp, "-maxstates", "500000", "-trace=false"})
	})
	if code != 2 {
		t.Fatalf("resume from mangled checkpoint exit = %d, want 2", code)
	}
	if !strings.Contains(out, "corrupt or truncated") {
		t.Fatalf("missing corruption diagnosis, stderr:\n%s", out)
	}
}

func TestChaosSpecErrorsExitCleanly(t *testing.T) {
	for _, spec := range []string{"crash=2", "bogus=1", "flip"} {
		if code := run([]string{"-chaos", spec, "-trace=false"}); code != 2 {
			t.Fatalf("spec %q exit = %d, want 2", spec, code)
		}
	}
}
