package store

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"tofu/internal/faultfs"
	"tofu/internal/plan"
)

// ErrNotFound reports a digest with no (healthy) entry on disk.
var ErrNotFound = errors.New("store: entry not found")

// Options tunes a Store.
type Options struct {
	// Fsync makes every Put durable before it becomes visible: the temp
	// file is synced before the rename and the directory after it. Off by
	// default — the store is a cache of recomputable artifacts, and a torn
	// write is caught by the checksum and quarantined, so most deployments
	// prefer the faster policy.
	Fsync bool
	// FS routes every filesystem call the store makes (nil = the real OS).
	// Tests and the tofu-serve -faultfs flag hand in a faultfs.Injector to
	// exercise the store's corruption and write-failure paths.
	FS faultfs.FS
}

// maxQuarantinePerEntry bounds the .corrupt.<n> forensic files kept per
// entry path: a store fed a repeating corruption (a bad disk region, a
// buggy writer looping) keeps the first few specimens for inspection and
// deletes the rest, so quarantine can never grow the directory without
// bound.
const maxQuarantinePerEntry = 4

// Store is a content-addressed plan store rooted at one directory: entry
// files named <64 hex>.plan (the digest without its "sha256:" prefix),
// written via temp-file-plus-rename so readers — including other replicas
// sharing the directory — never observe a partial entry.
type Store struct {
	dir  string
	opts Options

	// Counters for the /metrics endpoint; quarantines also land here.
	puts        atomic.Int64
	hits        atomic.Int64
	misses      atomic.Int64
	corrupt     atomic.Int64
	quarantined atomic.Int64
	putErrors   atomic.Int64

	// seq numbers this handle's .corrupt.<n> quarantine files.
	seq atomic.Int64

	// quarantineMu serializes quarantine renames so two readers hitting the
	// same corrupt entry don't race each other's os.Rename.
	quarantineMu sync.Mutex
}

// Open roots a store at dir, creating it if needed.
func Open(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if opts.FS == nil {
		opts.FS = faultfs.OS
	}
	if err := opts.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{dir: dir, opts: opts}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// entryPath maps a digest to its entry file.
func (s *Store) entryPath(digest string) (string, error) {
	if err := plan.ValidateDigest(digest); err != nil {
		return "", fmt.Errorf("store: %w", err)
	}
	return filepath.Join(s.dir, strings.TrimPrefix(digest, plan.DigestPrefix)+".plan"), nil
}

// Put persists a plan under meta.Digest: serialize the entry, write it to a
// private temp file in the same directory, then rename it into place.
// Concurrent Puts of the same digest are idempotent — both write the same
// bytes and the second rename atomically replaces the first.
func (s *Store) Put(meta Meta, planBytes []byte) error {
	path, err := s.entryPath(meta.Digest)
	if err != nil {
		s.putErrors.Add(1)
		return err
	}
	data, err := AppendEntry(nil, meta, planBytes)
	if err != nil {
		s.putErrors.Add(1)
		return err
	}
	tmp, err := s.writeTemp(path, data)
	if err != nil {
		s.putErrors.Add(1)
		return fmt.Errorf("store: %w", err)
	}
	if err := s.opts.FS.Rename(tmp, path); err != nil {
		_ = s.opts.FS.Remove(tmp) //tofu:allow-errdrop best-effort temp cleanup; the rename error is what matters
		s.putErrors.Add(1)
		return fmt.Errorf("store: %w", err)
	}
	if s.opts.Fsync {
		if err := s.syncDir(); err != nil {
			s.putErrors.Add(1)
			return err
		}
	}
	s.puts.Add(1)
	return nil
}

// tempAttempts bounds the retries on a temp-name collision; with a 64-bit
// random suffix a second attempt is already a once-in-a-lifetime event.
const tempAttempts = 8

// writeTemp writes data to a fresh <path>.tmp.<random> sibling and returns its
// name. The suffix is random, not a pid or a per-handle counter: every writer
// on the directory — another handle in this process, another container with
// the same pid — draws from the same space, and an exclusive create that
// finds the name taken draws again.
func (s *Store) writeTemp(path string, data []byte) (string, error) {
	var err error
	for range tempAttempts {
		tmp := path + ".tmp." + s.opts.FS.TempSuffix()
		if err = s.writeFile(tmp, data); !errors.Is(err, fs.ErrExist) {
			return tmp, err
		}
	}
	return "", err
}

func (s *Store) writeFile(path string, data []byte) error {
	f, err := s.opts.FS.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close()              //tofu:allow-errdrop the write error is being returned
		_ = s.opts.FS.Remove(path) //tofu:allow-errdrop best-effort temp cleanup; the write error is what matters
		return err
	}
	if s.opts.Fsync {
		if err := f.Sync(); err != nil {
			_ = f.Close()              //tofu:allow-errdrop the sync error is being returned
			_ = s.opts.FS.Remove(path) //tofu:allow-errdrop best-effort temp cleanup; the sync error is what matters
			return err
		}
	}
	if err := f.Close(); err != nil {
		_ = s.opts.FS.Remove(path) //tofu:allow-errdrop best-effort temp cleanup; the close error is what matters
		return err
	}
	return nil
}

func (s *Store) syncDir() error {
	if err := s.opts.FS.SyncDir(s.dir); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Get loads and verifies the entry for a digest. A missing entry returns
// ErrNotFound; a corrupt one (torn write, checksum mismatch, wrong-digest
// content) is quarantined to a .corrupt sibling and then reported as
// ErrNotFound too — corruption costs a recompute, never an outage.
func (s *Store) Get(digest string) (Meta, []byte, error) {
	path, err := s.entryPath(digest)
	if err != nil {
		return Meta{}, nil, err
	}
	data, err := s.opts.FS.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		s.misses.Add(1)
		return Meta{}, nil, ErrNotFound
	}
	if err != nil {
		s.misses.Add(1)
		return Meta{}, nil, fmt.Errorf("store: %w", err)
	}
	// The entry must parse and answer the digest its filename promises;
	// any defect quarantines it.
	meta, payload, err := ReadEntry(data)
	if err == nil && meta.Digest != digest {
		err = fmt.Errorf("store: entry %s carries digest %s", filepath.Base(path), meta.Digest)
	}
	if err != nil {
		s.quarantine(path)
		s.misses.Add(1)
		return Meta{}, nil, fmt.Errorf("%w (quarantined: %v)", ErrNotFound, err)
	}
	s.hits.Add(1)
	return meta, payload, nil
}

// quarantine moves a corrupt entry aside so it is never re-read and never
// silently deleted — operators can inspect it. Rename failures (e.g. the
// other replica quarantined it first) are absorbed: the entry is already
// out of the serving path either way. Once maxQuarantinePerEntry forensic
// copies of one entry exist, further corrupt copies are deleted instead —
// a repeating corruption must not grow the directory without bound.
func (s *Store) quarantine(path string) {
	s.corrupt.Add(1)
	s.quarantineMu.Lock()
	defer s.quarantineMu.Unlock()
	if _, err := s.opts.FS.Stat(path); err != nil {
		return
	}
	if kept, err := s.opts.FS.Glob(globQuote(path) + ".corrupt.*"); err == nil && len(kept) >= maxQuarantinePerEntry {
		_ = s.opts.FS.Remove(path) //tofu:allow-errdrop best-effort cap enforcement; a survivor is re-quarantined on the next read
		return
	}
	dst := fmt.Sprintf("%s.corrupt.%d", path, s.seq.Add(1))
	if err := s.opts.FS.Rename(path, dst); err != nil {
		// Lost a race with another quarantiner or the file vanished; the
		// next Get simply misses.
		return
	}
	s.quarantined.Add(1)
}

// globQuote escapes the glob metacharacters in a literal path, so a store
// rooted at a directory named like "plans[a]" counts its own quarantine
// files and no one else's: '*', '?' and '[' each become a one-character
// class, and a backslash is escaped where it is not the path separator.
func globQuote(path string) string {
	var b strings.Builder
	for _, c := range path {
		switch {
		case c == '*' || c == '?' || c == '[':
			b.WriteString("[" + string(c) + "]")
		case c == '\\' && filepath.Separator != '\\':
			b.WriteString(`\\`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// Stats is the store's counter snapshot for /metrics.
type Stats struct {
	Puts    int64 `json:"store_puts"`
	Hits    int64 `json:"store_hits"`
	Misses  int64 `json:"store_misses"`
	Corrupt int64 `json:"store_corrupt"`
	// Quarantined counts corrupt entries preserved as .corrupt.<n> forensic
	// files; detections past the per-entry cap land in Corrupt only.
	Quarantined int64 `json:"store_quarantined"`
	PutErrors   int64 `json:"store_put_errors"`
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	return Stats{
		Puts:        s.puts.Load(),
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Corrupt:     s.corrupt.Load(),
		Quarantined: s.quarantined.Load(),
		PutErrors:   s.putErrors.Load(),
	}
}
