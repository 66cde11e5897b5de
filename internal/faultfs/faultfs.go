// Package faultfs is the fault-injection seam under the persistent plan
// store: an FS interface mirroring exactly the filesystem calls the store
// makes, an OS passthrough, and an Injector that wraps any FS with
// deterministic, rule-driven faults — read errors, corrupted bytes, short
// writes, added latency — selected by operation, path pattern and call
// count. Chaos tests (and the tofu-serve -faultfs flag) use it to prove the
// serving stack degrades to recomputes, never to 500s, when the disk
// misbehaves.
package faultfs

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ErrInjected is the error every "error" and "short" rule returns; tests
// assert on it to distinguish injected faults from real ones.
var ErrInjected = errors.New("faultfs: injected fault")

// File is the write handle the store's temp-file path needs.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// FS is the filesystem surface the store consumes. The method set is
// deliberately the store's exact call profile — nothing speculative.
type FS interface {
	MkdirAll(dir string, perm fs.FileMode) error
	ReadFile(path string) ([]byte, error)
	// Create opens path for exclusive creation (O_WRONLY|O_CREATE|O_EXCL).
	Create(path string) (File, error)
	// TempSuffix returns a random temp-file suffix. Writers sharing a
	// directory share no counter — two handles in one process, two containers
	// that are both pid 1 on one volume — so uniqueness comes from randomness
	// and the caller retries Create when two draws collide.
	TempSuffix() string
	Rename(oldPath, newPath string) error
	Remove(path string) error
	Stat(path string) (fs.FileInfo, error)
	Glob(pattern string) ([]string, error)
	// SyncDir fsyncs a directory (the rename-durability barrier).
	SyncDir(dir string) error
}

// OS is the passthrough FS every production store uses.
var OS FS = osFS{}

type osFS struct{}

func (osFS) MkdirAll(dir string, perm fs.FileMode) error { return os.MkdirAll(dir, perm) }
func (osFS) ReadFile(path string) ([]byte, error)        { return os.ReadFile(path) }
func (osFS) Create(path string) (File, error) {
	return os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
}
func (osFS) TempSuffix() string                    { return strconv.FormatUint(rand.Uint64(), 36) }
func (osFS) Rename(oldPath, newPath string) error  { return os.Rename(oldPath, newPath) }
func (osFS) Remove(path string) error              { return os.Remove(path) }
func (osFS) Stat(path string) (fs.FileInfo, error) { return os.Stat(path) }
func (osFS) Glob(pattern string) ([]string, error) { return filepath.Glob(pattern) }
func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Op names the FS operation a rule targets.
type Op string

const (
	OpRead   Op = "read"
	OpWrite  Op = "write" // fires inside Create'd files' Write calls
	OpRename Op = "rename"
	OpRemove Op = "remove"
	OpStat   Op = "stat"
	OpGlob   Op = "glob"
	OpSync   Op = "sync" // file Sync and SyncDir
	OpMkdir  Op = "mkdir"
)

// Mode is what a matched rule does.
type Mode string

const (
	// ModeError fails the operation with ErrInjected.
	ModeError Mode = "error"
	// ModeCorrupt flips a byte: reads return corrupted data, writes land
	// corrupted bytes on disk (the next verified read quarantines them).
	ModeCorrupt Mode = "corrupt"
	// ModeShort writes only half the buffer, then fails with ErrInjected —
	// a torn write the caller sees (only meaningful on OpWrite).
	ModeShort Mode = "short"
	// ModeLatency sleeps Rule.Latency, then lets the operation through.
	ModeLatency Mode = "latency"
)

// Rule is one injected fault: the first Count (0 = unlimited) matching
// calls after skipping After of them misbehave per Mode. Pattern is a
// filepath.Match glob tested against the path's base name.
type Rule struct {
	Op      Op
	Pattern string
	Mode    Mode
	Count   int
	After   int
	Latency time.Duration

	mu    sync.Mutex
	seen  int
	fired int
}

// match consumes one call against the rule's counters and reports whether
// the fault fires for it.
func (r *Rule) match(op Op, path string) bool {
	if r.Op != op {
		return false
	}
	if ok, err := filepath.Match(r.Pattern, filepath.Base(path)); err != nil || !ok {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seen++
	if r.seen <= r.After {
		return false
	}
	if r.Count > 0 && r.fired >= r.Count {
		return false
	}
	r.fired++
	return true
}

// Injector wraps an FS with fault rules. The zero value is unusable; build
// one with New (or ParseSpec) and hand it to store.Options.FS.
type Injector struct {
	inner FS
	rules []*Rule
}

// New wraps inner (nil = the real OS) with rules.
func New(inner FS, rules ...*Rule) *Injector {
	if inner == nil {
		inner = OS
	}
	return &Injector{inner: inner, rules: rules}
}

// Fired reports how many times each rule has fired, in rule order — the
// assertion hook for chaos tests.
func (i *Injector) Fired() []int {
	out := make([]int, len(i.rules))
	for n, r := range i.rules {
		r.mu.Lock()
		out[n] = r.fired
		r.mu.Unlock()
	}
	return out
}

// refund returns one firing to the rule's Count budget: the fault matched a
// call it then could not affect (a corrupt read of a file that does not
// exist), and budgets are spent only by faults that took effect.
func (r *Rule) refund() {
	r.mu.Lock()
	r.fired--
	r.mu.Unlock()
}

// fault finds the first firing rule for a call, sleeping for latency rules.
// It returns nil when the call should pass through untouched.
func (i *Injector) fault(op Op, path string) *Rule {
	for _, r := range i.rules {
		if !r.match(op, path) {
			continue
		}
		if r.Mode == ModeLatency {
			time.Sleep(r.Latency)
			continue // latency delays, it does not consume the call
		}
		return r
	}
	return nil
}

func corruptCopy(data []byte) []byte {
	out := make([]byte, len(data))
	copy(out, data)
	if len(out) > 0 {
		// Flip a byte in the middle: past any header magic, inside the
		// checksummed region, so verification must catch it.
		out[len(out)/2] ^= 0xff
	}
	return out
}

func (i *Injector) MkdirAll(dir string, perm fs.FileMode) error {
	if i.fault(OpMkdir, dir) != nil {
		return fmt.Errorf("%w: mkdir %s", ErrInjected, dir)
	}
	return i.inner.MkdirAll(dir, perm)
}

func (i *Injector) ReadFile(path string) ([]byte, error) {
	r := i.fault(OpRead, path)
	if r != nil && r.Mode == ModeError {
		return nil, fmt.Errorf("%w: read %s", ErrInjected, filepath.Base(path))
	}
	data, err := i.inner.ReadFile(path)
	if r == nil || r.Mode != ModeCorrupt {
		return data, err
	}
	if err != nil {
		// Nothing to corrupt (typically a first-lookup ENOENT): the fault
		// did not take effect, so it does not spend the rule's budget.
		r.refund()
		return nil, err
	}
	return corruptCopy(data), nil
}

func (i *Injector) Create(path string) (File, error) {
	f, err := i.inner.Create(path)
	if err != nil {
		return nil, err
	}
	return &faultFile{inj: i, path: path, f: f}, nil
}

func (i *Injector) TempSuffix() string { return i.inner.TempSuffix() }

func (i *Injector) Rename(oldPath, newPath string) error {
	if i.fault(OpRename, newPath) != nil {
		return fmt.Errorf("%w: rename %s", ErrInjected, filepath.Base(newPath))
	}
	return i.inner.Rename(oldPath, newPath)
}

func (i *Injector) Remove(path string) error {
	if i.fault(OpRemove, path) != nil {
		return fmt.Errorf("%w: remove %s", ErrInjected, filepath.Base(path))
	}
	return i.inner.Remove(path)
}

func (i *Injector) Stat(path string) (fs.FileInfo, error) {
	if i.fault(OpStat, path) != nil {
		return nil, fmt.Errorf("%w: stat %s", ErrInjected, filepath.Base(path))
	}
	return i.inner.Stat(path)
}

func (i *Injector) Glob(pattern string) ([]string, error) {
	if i.fault(OpGlob, pattern) != nil {
		return nil, fmt.Errorf("%w: glob %s", ErrInjected, pattern)
	}
	return i.inner.Glob(pattern)
}

func (i *Injector) SyncDir(dir string) error {
	if i.fault(OpSync, dir) != nil {
		return fmt.Errorf("%w: syncdir %s", ErrInjected, dir)
	}
	return i.inner.SyncDir(dir)
}

// faultFile applies write-path rules to one created file.
type faultFile struct {
	inj  *Injector
	path string
	f    File
}

func (w *faultFile) Write(p []byte) (int, error) {
	r := w.inj.fault(OpWrite, w.path)
	if r == nil {
		return w.f.Write(p)
	}
	switch r.Mode {
	case ModeError:
		return 0, fmt.Errorf("%w: write %s", ErrInjected, filepath.Base(w.path))
	case ModeShort:
		n, err := w.f.Write(p[:len(p)/2])
		if err != nil {
			return n, err
		}
		return n, fmt.Errorf("%w: short write %s (%d of %d bytes)", ErrInjected, filepath.Base(w.path), n, len(p))
	case ModeCorrupt:
		return w.f.Write(corruptCopy(p))
	}
	return w.f.Write(p)
}

func (w *faultFile) Sync() error {
	if w.inj.fault(OpSync, w.path) != nil {
		return fmt.Errorf("%w: sync %s", ErrInjected, filepath.Base(w.path))
	}
	return w.f.Sync()
}

func (w *faultFile) Close() error { return w.f.Close() }

// ParseSpec builds an Injector over the real OS from a flag-friendly spec:
// semicolon-separated rules of the form
//
//	op:pattern:mode[:count[:after]]
//	op:pattern:latency:<duration>[:count[:after]]
//
// e.g. "read:*.plan:corrupt:3" (corrupt the first three entry reads) or
// "write:*.tmp.*:latency:50ms" (slow every temp-file write by 50ms). An
// empty spec returns nil — no injection, the store runs on the real OS.
func ParseSpec(spec string) (*Injector, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var rules []*Rule
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		if len(fields) < 3 {
			return nil, fmt.Errorf("faultfs: rule %q: want op:pattern:mode[...]", part)
		}
		r := &Rule{Op: Op(fields[0]), Pattern: fields[1], Mode: Mode(fields[2])}
		switch r.Op {
		case OpRead, OpWrite, OpRename, OpRemove, OpStat, OpGlob, OpSync, OpMkdir:
		default:
			return nil, fmt.Errorf("faultfs: rule %q: unknown op %q", part, fields[0])
		}
		rest := fields[3:]
		switch r.Mode {
		case ModeError, ModeCorrupt, ModeShort:
		case ModeLatency:
			if len(rest) == 0 {
				return nil, fmt.Errorf("faultfs: rule %q: latency mode needs a duration", part)
			}
			d, err := time.ParseDuration(rest[0])
			if err != nil || d < 0 {
				return nil, fmt.Errorf("faultfs: rule %q: bad latency %q", part, rest[0])
			}
			r.Latency = d
			rest = rest[1:]
		default:
			return nil, fmt.Errorf("faultfs: rule %q: unknown mode %q", part, fields[2])
		}
		if len(rest) > 0 {
			n, err := strconv.Atoi(rest[0])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("faultfs: rule %q: bad count %q", part, rest[0])
			}
			r.Count = n
			rest = rest[1:]
		}
		if len(rest) > 0 {
			n, err := strconv.Atoi(rest[0])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("faultfs: rule %q: bad after-skip %q", part, rest[0])
			}
			r.After = n
			rest = rest[1:]
		}
		if len(rest) > 0 {
			return nil, fmt.Errorf("faultfs: rule %q: trailing fields %v", part, rest)
		}
		rules = append(rules, r)
	}
	if len(rules) == 0 {
		return nil, nil
	}
	return New(OS, rules...), nil
}
