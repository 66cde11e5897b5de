package service_test

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"tofu/internal/faultfs"
	"tofu/internal/service"
	"tofu/internal/store"
)

// TestChaosCorruptReadsZeroServerErrors is the in-tree half of the chaos
// harness (CI runs the process-level one, with a kill -9 replica, in
// scripts/chaos-smoke.sh): a service whose persistent store corrupts entry
// reads must degrade to recomputes — every response under concurrent load
// is a success, none a 5xx — while the store quarantines the corrupt
// entries and the metrics make the event visible.
func TestChaosCorruptReadsZeroServerErrors(t *testing.T) {
	inj := faultfs.New(faultfs.OS,
		// Every second *.plan read returns flipped bytes: the checksum
		// must catch each one, quarantine it, and fall through to a
		// recompute — interleaved with clean reads to cover both paths.
		&faultfs.Rule{Op: faultfs.OpRead, Pattern: "*.plan", Mode: faultfs.ModeCorrupt, Count: 6})
	st, err := store.Open(t.TempDir(), store.Options{FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	// CacheSize 1 forces LRU churn, so most lookups reach the store.
	_, srv := startServer(t, service.Config{
		CacheSize: 1, Workers: 2, QueueDepth: 32, SyncWait: 30 * time.Second, Store: st,
	})

	body := func(i int) string {
		return fmt.Sprintf(`{"model":{"family":"mlp","depth":4,"width":256,"batch":%d}}`, 16<<(i%3))
	}
	// Waves of the three distinct requests: wave 0 computes and stores
	// them, and from wave 1 on the one-entry LRU sends at least two of
	// every three lookups to entries that exist on disk — on any core
	// count, where 18 simultaneous requests could all coalesce onto the
	// first three jobs and never read the store at all.
	const rounds, perWave = 18, 3
	codes := make([]int, rounds)
	for w := 0; w < rounds; w += perWave {
		var wg sync.WaitGroup
		for i := w; i < w+perWave; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				resp, err := http.Post(srv.URL+"/v1/partition", "application/json", strings.NewReader(body(i)))
				if err != nil {
					t.Errorf("request %d: %v", i, err)
					return
				}
				io.Copy(io.Discard, resp.Body) //tofu:allow-errdrop test drain
				resp.Body.Close()
				codes[i] = resp.StatusCode
			}(i)
		}
		wg.Wait()
	}

	for i, code := range codes {
		if code >= 500 {
			t.Errorf("request %d: HTTP %d — corruption leaked to the client", i, code)
		}
		if code != http.StatusOK && code != http.StatusAccepted {
			t.Errorf("request %d: HTTP %d, want 200 or 202", i, code)
		}
	}
	// The faults really fired, and the store turned them into quarantines
	// the operator can see at /metrics.
	if fired := inj.Fired(); fired[0] == 0 {
		t.Fatal("no corrupt read was ever injected; the test exercised nothing")
	}
	snap := getMetrics(t, srv.URL)
	if snap.StoreCorrupt == 0 || snap.StoreQuarantined == 0 {
		t.Errorf("metrics: StoreCorrupt=%d StoreQuarantined=%d, want both > 0",
			snap.StoreCorrupt, snap.StoreQuarantined)
	}
	// And the service still works: a fresh identical request serves cleanly.
	resp, err := http.Post(srv.URL+"/v1/partition", "application/json", strings.NewReader(body(0)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //tofu:allow-errdrop test drain
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-chaos request: HTTP %d", resp.StatusCode)
	}
}
