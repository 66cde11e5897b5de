package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"tofu/internal/faultfs"
)

func digestFor(b byte) string {
	return "sha256:" + strings.Repeat(fmt.Sprintf("%02x", b), 32)
}

func testMeta(d string) Meta {
	return Meta{
		Digest:      d,
		ModelDigest: strings.Repeat("ab", 32),
		Workers:     16,
		Steps:       []Step{{Factor: 2, Level: 0}, {Factor: 2, Level: 0}, {Factor: 2, Level: 1}, {Factor: 2, Level: 1}},
	}
}

func TestEntryRoundTrip(t *testing.T) {
	d := digestFor(1)
	payload := []byte(`{"digest":"` + d + `"}` + "\n")
	data, err := AppendEntry(nil, testMeta(d), payload)
	if err != nil {
		t.Fatal(err)
	}
	meta, got, err := ReadEntry(data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("payload changed across round trip: %q -> %q", payload, got)
	}
	if meta.Digest != d || meta.Workers != 16 || len(meta.Steps) != 4 {
		t.Errorf("meta changed across round trip: %+v", meta)
	}
}

func TestEntryRejectsCorruption(t *testing.T) {
	d := digestFor(2)
	payload := []byte("plan-bytes")
	data, err := AppendEntry(nil, testMeta(d), payload)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":             nil,
		"no-newline":        []byte(`{"format":"tofu-plan-store-v1"}`),
		"truncated-payload": data[:len(data)-1],
		"extended-payload":  append(append([]byte{}, data...), 'x'),
		"flipped-byte": func() []byte {
			c := append([]byte{}, data...)
			c[len(c)-1] ^= 0xff
			return c
		}(),
		"bad-format": []byte(`{"format":"nope","digest":"` + d + `","workers":1,"plan_sha256":"00","plan_bytes":1}` + "\nx"),
		"bad-digest": []byte(`{"format":"tofu-plan-store-v1","digest":"sha256:xyz","workers":1,"plan_sha256":"00","plan_bytes":1}` + "\nx"),
		"unknown-field": []byte(`{"format":"tofu-plan-store-v1","digest":"` + d +
			`","workers":1,"plan_sha256":"00","plan_bytes":1,"extra":true}` + "\nx"),
	}
	for name, c := range cases {
		if _, _, err := ReadEntry(c); err == nil {
			t.Errorf("%s: corrupt entry accepted", name)
		}
	}
}

func TestStorePutGet(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := digestFor(3)
	payload := []byte("the plan bytes")
	if _, _, err := s.Get(d); !errors.Is(err, ErrNotFound) {
		t.Fatalf("empty store Get: want ErrNotFound, got %v", err)
	}
	if err := s.Put(testMeta(d), payload); err != nil {
		t.Fatal(err)
	}
	meta, got, err := s.Get(d)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("Get returned %q, want %q", got, payload)
	}
	if meta.ModelDigest != strings.Repeat("ab", 32) {
		t.Errorf("meta lost model digest: %+v", meta)
	}
	st := s.Stats()
	if st.Puts != 1 || st.Hits != 1 || st.Misses != 1 || st.Corrupt != 0 {
		t.Errorf("stats %+v, want 1 put / 1 hit / 1 miss", st)
	}
	// No temp litter after a successful Put.
	tmps, _ := filepath.Glob(filepath.Join(s.Dir(), "*.tmp.*"))
	if len(tmps) != 0 {
		t.Errorf("temp files left behind: %v", tmps)
	}
}

func TestStoreFsyncPolicy(t *testing.T) {
	s, err := Open(t.TempDir(), Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	d := digestFor(4)
	if err := s.Put(testMeta(d), []byte("durable")); err != nil {
		t.Fatal(err)
	}
	if _, got, err := s.Get(d); err != nil || string(got) != "durable" {
		t.Fatalf("fsync store Get: %q, %v", got, err)
	}
}

func TestStoreQuarantinesCorruptEntry(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := digestFor(5)
	if err := s.Put(testMeta(d), []byte("good bytes")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, strings.TrimPrefix(d, "sha256:")+".plan")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get(d); !errors.Is(err, ErrNotFound) {
		t.Fatalf("corrupt Get: want ErrNotFound, got %v", err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("corrupt entry still in serving path")
	}
	quarantined, _ := filepath.Glob(path + ".corrupt.*")
	if len(quarantined) != 1 {
		t.Errorf("want 1 quarantined file, found %v", quarantined)
	}
	if st := s.Stats(); st.Corrupt != 1 {
		t.Errorf("corrupt counter %d, want 1", st.Corrupt)
	}
	// The digest is recomputable: a fresh Put heals the slot.
	if err := s.Put(testMeta(d), []byte("good bytes")); err != nil {
		t.Fatal(err)
	}
	if _, got, err := s.Get(d); err != nil || string(got) != "good bytes" {
		t.Fatalf("healed Get: %q, %v", got, err)
	}
}

// TestStoreWrongDigestContent plants a valid entry under the wrong filename
// — the content-addressing violation a misbehaving replica could produce —
// and wants it quarantined, not served.
func TestStoreWrongDigestContent(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := AppendEntry(nil, testMeta(digestFor(6)), []byte("entry six"))
	if err != nil {
		t.Fatal(err)
	}
	wrong := filepath.Join(dir, strings.TrimPrefix(digestFor(7), "sha256:")+".plan")
	if err := os.WriteFile(wrong, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get(digestFor(7)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("wrong-digest Get: want ErrNotFound, got %v", err)
	}
	if st := s.Stats(); st.Corrupt != 1 {
		t.Errorf("corrupt counter %d, want 1", st.Corrupt)
	}
}

// scriptedSuffixFS hands out temp suffixes from a script, then real ones: the
// seam a test needs to make two writers draw the same name.
type scriptedSuffixFS struct {
	faultfs.FS
	mu     sync.Mutex
	script []string
}

func (f *scriptedSuffixFS) TempSuffix() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.script) == 0 {
		return f.FS.TempSuffix()
	}
	s := f.script[0]
	f.script = f.script[1:]
	return s
}

// TestStoreTempNameCollision: a temp name another writer holds — another
// handle in this process, or another container with the same pid on a shared
// volume — costs a redraw, not the Put; a name space that stays taken is an
// error after a bounded number of draws, never a spin.
func TestStoreTempNameCollision(t *testing.T) {
	dir := t.TempDir()
	d := digestFor(40)
	taken := filepath.Join(dir, strings.TrimPrefix(d, "sha256:")+".plan.tmp.dup")
	if err := os.WriteFile(taken, []byte("another writer's half-written entry"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{FS: &scriptedSuffixFS{FS: faultfs.OS, script: []string{"dup", "dup", "fresh"}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testMeta(d), []byte("payload")); err != nil {
		t.Fatalf("Put after two colliding draws: %v", err)
	}
	if _, got, err := s.Get(d); err != nil || string(got) != "payload" {
		t.Fatalf("Get after a redrawn Put: %q, %v", got, err)
	}
	if kept, err := os.ReadFile(taken); err != nil || !strings.HasPrefix(string(kept), "another writer") {
		t.Errorf("the other writer's temp file was disturbed: %q, %v", kept, err)
	}
	stuck := make([]string, tempAttempts)
	for i := range stuck {
		stuck[i] = "dup"
	}
	s, err = Open(dir, Options{FS: &scriptedSuffixFS{FS: faultfs.OS, script: stuck}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testMeta(digestFor(40)), []byte("payload")); !errors.Is(err, os.ErrExist) {
		t.Errorf("Put with every draw taken: %v, want a file-exists error", err)
	}
	if st := s.Stats(); st.PutErrors != 1 {
		t.Errorf("stats %+v, want 1 put error", st)
	}
}

// TestStoreSharedDirReplicas is the fleet contract in miniature: two Store
// handles (two "replicas") on one directory — and a third opened later (a
// "restart") — all serve each other's writes, concurrently and race-free.
func TestStoreSharedDirReplicas(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(2)
		d := digestFor(byte(20 + i))
		go func() {
			defer wg.Done()
			if err := a.Put(testMeta(d), []byte(d)); err != nil {
				t.Error(err)
			}
		}()
		go func() {
			defer wg.Done()
			if err := b.Put(testMeta(d), []byte(d)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	restarted, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		d := digestFor(byte(20 + i))
		if _, got, err := restarted.Get(d); err != nil || string(got) != d {
			t.Fatalf("replica read of %s: %q, %v", d, got, err)
		}
	}
}

// BenchmarkStoreGet measures a store hit — read the entry file, parse its
// header, checksum the payload — on the median and the largest plan size
// of the repository benchmark's 256 serve-churn plans (23 and 684 KB). The
// payload's content does not matter to Get; its size does.
func BenchmarkStoreGet(b *testing.B) {
	for _, c := range []struct {
		name string
		size int
	}{{"23k", 23_000}, {"684k", 684_000}} {
		b.Run(c.name, func(b *testing.B) {
			s, err := Open(b.TempDir(), Options{})
			if err != nil {
				b.Fatal(err)
			}
			d := digestFor(9)
			if err := s.Put(testMeta(d), bytes.Repeat([]byte("x"), c.size)); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(c.size))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := s.Get(d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
