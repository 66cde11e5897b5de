package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tofu/internal/faultfs"
)

// TestStorePutFailuresSurface drives every write-path fault through the FS
// seam: the Put must fail loudly (PutErrors counted), leave no entry behind
// to serve, and the very next Put must heal the slot.
func TestStorePutFailuresSurface(t *testing.T) {
	cases := []struct {
		name string
		rule *faultfs.Rule
	}{
		{"write-error", &faultfs.Rule{Op: faultfs.OpWrite, Pattern: "*.tmp.*", Mode: faultfs.ModeError, Count: 1}},
		{"short-write", &faultfs.Rule{Op: faultfs.OpWrite, Pattern: "*.tmp.*", Mode: faultfs.ModeShort, Count: 1}},
		{"rename-error", &faultfs.Rule{Op: faultfs.OpRename, Pattern: "*.plan", Mode: faultfs.ModeError, Count: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir, Options{FS: faultfs.New(faultfs.OS, tc.rule)})
			if err != nil {
				t.Fatal(err)
			}
			d := digestFor(9)
			if err := s.Put(testMeta(d), []byte("payload")); !errors.Is(err, faultfs.ErrInjected) {
				t.Fatalf("Put under %s: err = %v, want ErrInjected", tc.name, err)
			}
			if _, _, err := s.Get(d); !errors.Is(err, ErrNotFound) {
				t.Fatalf("failed Put left a servable entry: %v", err)
			}
			if st := s.Stats(); st.PutErrors != 1 {
				t.Errorf("PutErrors = %d, want 1", st.PutErrors)
			}
			// The injected fault has burned its Count: the retry heals.
			if err := s.Put(testMeta(d), []byte("payload")); err != nil {
				t.Fatalf("healing Put: %v", err)
			}
			if _, got, err := s.Get(d); err != nil || string(got) != "payload" {
				t.Fatalf("healed Get: %q, %v", got, err)
			}
		})
	}
}

// TestStoreCorruptReadQuarantines injects read corruption through the FS
// seam (rather than rewriting the file, as the non-injected test does):
// the store must answer ErrNotFound, quarantine the on-disk entry, count
// it, and keep serving after a recompute.
func TestStoreCorruptReadQuarantines(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.New(faultfs.OS,
		&faultfs.Rule{Op: faultfs.OpRead, Pattern: "*.plan", Mode: faultfs.ModeCorrupt, Count: 1})
	s, err := Open(dir, Options{FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	d := digestFor(7)
	if err := s.Put(testMeta(d), []byte("the plan")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get(d); !errors.Is(err, ErrNotFound) {
		t.Fatalf("corrupted Get: want ErrNotFound, got %v", err)
	}
	path := filepath.Join(dir, strings.TrimPrefix(d, "sha256:")+".plan")
	if kept, _ := filepath.Glob(path + ".corrupt.*"); len(kept) != 1 {
		t.Errorf("want 1 quarantine file, found %v", kept)
	}
	if st := s.Stats(); st.Corrupt != 1 || st.Quarantined != 1 {
		t.Errorf("stats = %+v, want Corrupt=1 Quarantined=1", st)
	}
	// Recompute path: a fresh Put re-creates the entry and serves cleanly
	// (the injection rule's Count is spent).
	if err := s.Put(testMeta(d), []byte("the plan")); err != nil {
		t.Fatal(err)
	}
	if _, got, err := s.Get(d); err != nil || string(got) != "the plan" {
		t.Fatalf("post-recompute Get: %q, %v", got, err)
	}
}

// TestQuarantineCapBoundsForensics feeds the same entry path a repeating
// corruption: the store keeps at most maxQuarantinePerEntry .corrupt.<n>
// specimens and deletes further corrupt copies outright, so a bad disk
// region can never grow the directory without bound — also when the store's
// directory name holds glob metacharacters.
func TestQuarantineCapBoundsForensics(t *testing.T) {
	for _, name := range []string{"plans", "plans[a]", "*?"} {
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), name)
			s, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			d := digestFor(8)
			path := filepath.Join(dir, strings.TrimPrefix(d, "sha256:")+".plan")
			rounds := maxQuarantinePerEntry + 3
			for i := 0; i < rounds; i++ {
				if err := s.Put(testMeta(d), []byte(fmt.Sprintf("payload %d", i))); err != nil {
					t.Fatal(err)
				}
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				raw[len(raw)/2] ^= 0xff
				if err := os.WriteFile(path, raw, 0o644); err != nil {
					t.Fatal(err)
				}
				if _, _, err := s.Get(d); !errors.Is(err, ErrNotFound) {
					t.Fatalf("round %d: want ErrNotFound, got %v", i, err)
				}
				if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
					t.Fatalf("round %d: corrupt entry still in serving path", i)
				}
			}
			// Counted by name, not by glob: the directory name is literal.
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			kept := 0
			for _, e := range entries {
				if strings.HasPrefix(e.Name(), filepath.Base(path)+".corrupt.") {
					kept++
				}
			}
			if kept != maxQuarantinePerEntry {
				t.Errorf("quarantine files = %d, want capped at %d", kept, maxQuarantinePerEntry)
			}
			st := s.Stats()
			if st.Corrupt != int64(rounds) {
				t.Errorf("Corrupt = %d, want %d (every detection counts)", st.Corrupt, rounds)
			}
			if st.Quarantined != int64(maxQuarantinePerEntry) {
				t.Errorf("Quarantined = %d, want %d (only kept specimens count)", st.Quarantined, maxQuarantinePerEntry)
			}
		})
	}
}
