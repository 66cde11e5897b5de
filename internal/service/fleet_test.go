package service

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"tofu/internal/models"
	"tofu/internal/store"
)

func TestCacheByteBudgetEviction(t *testing.T) {
	// Three 10-byte plans fit a 32-byte budget; the fourth evicts the LRU.
	c := NewCacheBytes(100, 32)
	val := bytes.Repeat([]byte("x"), 10)
	for i := 1; i <= 3; i++ {
		c.Put(testDigest(i), val)
	}
	if c.Bytes() != 30 || c.Len() != 3 {
		t.Fatalf("bytes=%d len=%d, want 30/3", c.Bytes(), c.Len())
	}
	c.Put(testDigest(4), val)
	if c.Len() != 3 || c.Bytes() != 30 {
		t.Fatalf("after byte-budget eviction: bytes=%d len=%d, want 30/3", c.Bytes(), c.Len())
	}
	if _, ok := c.Get(testDigest(1)); ok {
		t.Fatal("1 should have been evicted by the byte budget")
	}
	// Refreshing an entry with a bigger value evicts others, not itself.
	c.Put(testDigest(4), bytes.Repeat([]byte("y"), 30))
	if _, ok := c.Get(testDigest(4)); !ok {
		t.Fatal("refreshed entry must survive its own eviction pass")
	}
	if c.Bytes() > 32 {
		t.Fatalf("bytes=%d over budget", c.Bytes())
	}
	// One plan bigger than the whole budget still caches (alone).
	c.Put(testDigest(9), bytes.Repeat([]byte("z"), 100))
	if v, ok := c.Get(testDigest(9)); !ok || len(v) != 100 {
		t.Fatal("oversized plan must cache as the sole resident")
	}
	if c.Len() != 1 {
		t.Fatalf("oversized plan should evict everything else, len=%d", c.Len())
	}
}

// fleetRequest is a real (non-seam) request small enough for test searches.
func fleetRequest() Request {
	return Request{Model: models.Config{Family: "mlp", Depth: 4, Width: 256, Batch: 64}}
}

// computeVia runs a request through a service end to end.
func computeVia(t *testing.T, s *Service, req Request) (string, []byte) {
	t.Helper()
	nr, err := req.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	digest, err := nr.digestNormalized()
	if err != nil {
		t.Fatal(err)
	}
	val, err := submitAndWait(t, s, nr, digest, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return digest, val
}

// TestStoreServesAcrossRestart is the tentpole contract: a daemon computes a
// plan, dies, and its successor on the same store directory serves the
// identical bytes from disk — verified, without running a search.
func TestStoreServesAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a := New(Config{Workers: 1, Store: st1})
	digest, fresh := computeVia(t, a, fleetRequest())
	if err := a.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Replica B: fresh process, same directory.
	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := New(Config{Workers: 1, Store: st2})
	defer b.Shutdown(context.Background())
	val, ok := b.Lookup(digest)
	if !ok {
		t.Fatal("restarted replica missed the store")
	}
	if !bytes.Equal(val, fresh) {
		t.Fatal("store-served bytes differ from the fresh search's bytes")
	}
	m := b.Metrics()
	if !m.StoreEnabled || m.StoreServed != 1 || m.StoreHits != 1 {
		t.Fatalf("store metrics: %+v", m)
	}
	if m.JobsDone != 0 {
		t.Fatalf("restarted replica ran %d searches; the store should have answered", m.JobsDone)
	}
	// A second Lookup is an LRU hit, not another disk read.
	if _, ok := b.Lookup(digest); !ok {
		t.Fatal("promoted entry missing from LRU")
	}
	if m2 := b.Metrics(); m2.StoreServed != 1 {
		t.Fatalf("store served twice (%d); promotion into the LRU failed", m2.StoreServed)
	}
}

// TestStoreCorruptEntryRecomputes flips a bit in the stored entry: the next
// replica must quarantine it, miss, and recompute the identical plan.
func TestStoreCorruptEntryRecomputes(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a := New(Config{Workers: 1, Store: st1})
	digest, fresh := computeVia(t, a, fleetRequest())
	if err := a.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	entries, err := filepath.Glob(filepath.Join(dir, "*.plan"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("want 1 store entry, got %v (%v)", entries, err)
	}
	raw, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(entries[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := New(Config{Workers: 1, Store: st2})
	defer b.Shutdown(context.Background())
	if _, ok := b.Lookup(digest); ok {
		t.Fatal("corrupt entry was served")
	}
	_, recomputed := computeVia(t, b, fleetRequest())
	if !bytes.Equal(recomputed, fresh) {
		t.Fatal("recomputed plan differs from the original")
	}
	if m := b.Metrics(); m.StoreCorrupt == 0 {
		t.Fatalf("corruption not counted: %+v", m)
	}
}

func TestTenantQuota(t *testing.T) {
	gate := make(chan struct{})
	// One worker: the FIFO queue hands it j1 first, so j1 is the only job
	// parked on the gate and the single token below releases j1 — with two
	// workers the token could go to another tenant's job and j1 never ends.
	s := New(Config{
		Workers: 1, QueueDepth: 16, TenantQuota: 1,
		Compute: func(r Request) ([]byte, error) { <-gate; return []byte("p"), nil },
	})
	defer func() { close(gate); s.Shutdown(context.Background()) }()

	req := fleetRequest()
	j1, _, err := s.SubmitTenant(req, testDigest(1), "acme")
	if err != nil {
		t.Fatal(err)
	}
	// Same tenant, second distinct search: over quota, even though the
	// global queue has plenty of room.
	if _, _, err := s.SubmitTenant(req, testDigest(2), "acme"); !errors.Is(err, ErrTenantQuota) {
		t.Fatalf("want ErrTenantQuota, got %v", err)
	}
	// A different tenant and the anonymous path are unaffected.
	if _, _, err := s.SubmitTenant(req, testDigest(3), "other"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Submit(req, testDigest(4)); err != nil {
		t.Fatal(err)
	}
	// Joining an in-flight search never counts against the quota.
	if _, kind, err := s.SubmitTenant(req, testDigest(1), "acme"); err != nil || kind != SubmitJoined {
		t.Fatalf("join: kind=%v err=%v", kind, err)
	}
	if m := s.Metrics(); m.TenantRejected != 1 {
		t.Fatalf("tenant_rejected = %d, want 1", m.TenantRejected)
	}
	// Releasing the running job frees the tenant's slot.
	gate <- struct{}{}
	<-j1.Done()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, _, err := s.SubmitTenant(req, testDigest(5), "acme"); err == nil {
			break
		} else if !errors.Is(err, ErrTenantQuota) {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("tenant slot never released")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTenantQuotaConcurrent hammers one tenant from many goroutines: the
// number of admitted jobs must never exceed the quota while the gate holds,
// and the counters must reconcile. Run under -race in CI.
func TestTenantQuotaConcurrent(t *testing.T) {
	gate := make(chan struct{})
	const quota = 3
	s := New(Config{
		Workers: 8, QueueDepth: 64, TenantQuota: quota,
		Compute: func(r Request) ([]byte, error) { <-gate; return []byte("p"), nil },
	})
	defer s.Shutdown(context.Background())

	req := fleetRequest()
	const n = 32
	var admitted, rejected int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			_, _, err := s.SubmitTenant(req, testDigest(100+i), "acme")
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				admitted++
			case errors.Is(err, ErrTenantQuota):
				rejected++
			default:
				t.Errorf("unexpected submit error: %v", err)
			}
		}(i)
	}
	wg.Wait()
	if admitted != quota || rejected != n-quota {
		t.Fatalf("admitted=%d rejected=%d, want %d/%d", admitted, rejected, quota, n-quota)
	}
	close(gate)
}

func TestTenantQuotaOverHTTP(t *testing.T) {
	gate := make(chan struct{})
	s := New(Config{
		Workers: 2, QueueDepth: 16, TenantQuota: 1, SyncWait: 10 * time.Millisecond,
		Compute: func(r Request) ([]byte, error) { <-gate; return []byte("p"), nil },
	})
	srv := httptest.NewServer(s.Handler())
	defer func() {
		srv.Close()
		close(gate)
		s.Shutdown(context.Background())
	}()

	post := func(tenant, body string) int {
		t.Helper()
		req, err := http.NewRequest("POST", srv.URL+"/v1/partition", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if tenant != "" {
			req.Header.Set("Tofu-Tenant", tenant)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	b1 := `{"model":{"family":"mlp","depth":4,"width":256,"batch":64}}`
	b2 := `{"model":{"family":"mlp","depth":4,"width":512,"batch":64}}`
	if code := post("acme", b1); code != http.StatusAccepted {
		t.Fatalf("first request: %d, want 202 (async flip)", code)
	}
	if code := post("acme", b2); code != http.StatusTooManyRequests {
		t.Fatalf("over-quota request: %d, want 429", code)
	}
	if code := post("other", b2); code != http.StatusAccepted {
		t.Fatalf("other tenant: %d, want 202", code)
	}
}
