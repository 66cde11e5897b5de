package faultfs

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestRuleCountAndAfter(t *testing.T) {
	r := &Rule{Op: OpRead, Pattern: "*.plan", Mode: ModeError, Count: 2, After: 1}
	// Call 1 is skipped (After), 2 and 3 fire (Count), 4+ pass.
	want := []bool{false, true, true, false, false}
	for i, w := range want {
		if got := r.match(OpRead, "/store/abc.plan"); got != w {
			t.Errorf("call %d: fired=%v, want %v", i+1, got, w)
		}
	}
	// Wrong op or non-matching base name never consumes the counters.
	if r.match(OpWrite, "/store/abc.plan") || r.match(OpRead, "/store/abc.tmp") {
		t.Error("rule fired for a non-matching call")
	}
}

func TestInjectorReadModes(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.plan")
	if err := os.WriteFile(path, []byte("payload"), 0o644); err != nil {
		t.Fatal(err)
	}

	inj := New(OS, &Rule{Op: OpRead, Pattern: "*.plan", Mode: ModeError, Count: 1})
	if _, err := inj.ReadFile(path); !errors.Is(err, ErrInjected) {
		t.Fatalf("error rule: got %v, want ErrInjected", err)
	}
	if got, err := inj.ReadFile(path); err != nil || string(got) != "payload" {
		t.Fatalf("after count exhausted: %q, %v", got, err)
	}
	if fired := inj.Fired(); fired[0] != 1 {
		t.Errorf("Fired = %v, want [1]", fired)
	}

	inj = New(OS, &Rule{Op: OpRead, Pattern: "*.plan", Mode: ModeCorrupt, Count: 1})
	got, err := inj.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) == "payload" {
		t.Fatal("corrupt rule returned pristine bytes")
	}
	if len(got) != len("payload") {
		t.Fatalf("corrupt rule changed length: %d", len(got))
	}
	// The file itself is untouched: corruption happens in the returned copy.
	if disk, _ := os.ReadFile(path); string(disk) != "payload" {
		t.Fatal("corrupt read mutated the backing file")
	}
}

func TestInjectorWriteModes(t *testing.T) {
	dir := t.TempDir()

	inj := New(OS, &Rule{Op: OpWrite, Pattern: "short.*", Mode: ModeShort})
	f, err := inj.Create(filepath.Join(dir, "short.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	n, err := f.Write([]byte("0123456789"))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("short write error = %v, want ErrInjected", err)
	}
	if n != 5 {
		t.Fatalf("short write wrote %d bytes, want 5", n)
	}
	f.Close()

	inj = New(OS, &Rule{Op: OpWrite, Pattern: "corrupt.*", Mode: ModeCorrupt})
	path := filepath.Join(dir, "corrupt.tmp")
	f, err = inj.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	f.Close()
	disk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(disk) == "0123456789" {
		t.Fatal("corrupt write landed pristine bytes")
	}
}

func TestInjectorLatencyPassesThrough(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.plan")
	if err := os.WriteFile(path, []byte("payload"), 0o644); err != nil {
		t.Fatal(err)
	}
	inj := New(OS, &Rule{Op: OpRead, Pattern: "*.plan", Mode: ModeLatency, Latency: 10 * time.Millisecond})
	t0 := time.Now()
	got, err := inj.ReadFile(path)
	if err != nil || string(got) != "payload" {
		t.Fatalf("latency rule altered the read: %q, %v", got, err)
	}
	if time.Since(t0) < 10*time.Millisecond {
		t.Error("latency rule did not delay")
	}
}

func TestParseSpec(t *testing.T) {
	if inj, err := ParseSpec(""); inj != nil || err != nil {
		t.Fatalf("empty spec: %v, %v; want nil, nil", inj, err)
	}
	inj, err := ParseSpec("read:*.plan:corrupt:3; write:*.tmp.*:latency:50ms:2:1")
	if err != nil {
		t.Fatal(err)
	}
	if len(inj.rules) != 2 {
		t.Fatalf("parsed %d rules, want 2", len(inj.rules))
	}
	r := inj.rules[0]
	if r.Op != OpRead || r.Pattern != "*.plan" || r.Mode != ModeCorrupt || r.Count != 3 || r.After != 0 {
		t.Errorf("rule 0 = %+v", r)
	}
	r = inj.rules[1]
	if r.Op != OpWrite || r.Mode != ModeLatency || r.Latency != 50*time.Millisecond || r.Count != 2 || r.After != 1 {
		t.Errorf("rule 1 = %+v", r)
	}

	for _, bad := range []string{
		"read:*.plan",                  // too few fields
		"chmod:*.plan:error",           // unknown op
		"read:*.plan:explode",          // unknown mode
		"read:*.plan:latency",          // latency without duration
		"read:*.plan:latency:-1s",      // negative latency
		"read:*.plan:error:x",          // bad count
		"read:*.plan:error:1:y",        // bad after
		"read:*.plan:error:1:2:junk",   // trailing fields
		"read:*.plan:corrupt:3:0:more", // trailing fields after full form
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted a malformed rule", bad)
		}
	}
}

// TestCorruptReadOfMissingFileKeepsBudget pins the budget rule: a corrupt
// read that fails in the inner FS corrupted nothing, so it must not spend
// the rule's Count — otherwise first-lookup ENOENTs burn every fault before
// any entry exists to corrupt.
func TestCorruptReadOfMissingFileKeepsBudget(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.plan")
	inj := New(OS, &Rule{Op: OpRead, Pattern: "*.plan", Mode: ModeCorrupt, Count: 1})
	for i := 0; i < 3; i++ {
		if _, err := inj.ReadFile(path); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("missing file: got %v, want ErrNotExist", err)
		}
	}
	if fired := inj.Fired(); fired[0] != 0 {
		t.Fatalf("Fired = %v after reads that corrupted nothing, want [0]", fired)
	}
	if err := os.WriteFile(path, []byte("payload"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := inj.ReadFile(path); err != nil || string(got) == "payload" {
		t.Fatalf("first real read: %q, %v; want corrupted bytes", got, err)
	}
	if got, err := inj.ReadFile(path); err != nil || string(got) != "payload" {
		t.Fatalf("budget of 1 spent, yet read returned %q, %v", got, err)
	}
	if fired := inj.Fired(); fired[0] != 1 {
		t.Fatalf("Fired = %v, want [1]", fired)
	}
}
