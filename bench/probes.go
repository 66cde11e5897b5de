package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"path/filepath"
	"time"

	"tofu/internal/service"
	"tofu/internal/store"
)

// probes is the serve half of the ledger: each stage of a served request,
// timed in-process through the service's and the store's public functions
// over the workload's own warm requests, for about the given time. Every
// row is the median of per-call times in microseconds (milliseconds for the
// job rows).
func (sr *serveRun) probes(seed int64, seconds float64, got map[string]float64) error {
	rng := rand.New(rand.NewSource(seed))
	// each times fn over seeded passes of the warm requests for a tenth of
	// the budget (there are at most nine probes and the job probe); the
	// first pass always completes.
	each := func(row string, fn func(r request) error) error {
		until := time.Now().Add(time.Duration(seconds / 10 * float64(time.Second)))
		var us []float64
		for pass := 0; pass == 0 || time.Now().Before(until); pass++ {
			for _, r := range shuffled(sr.warm, rng) {
				t0 := time.Now()
				err := fn(r)
				us = append(us, time.Since(t0).Seconds()*1e6)
				if err != nil {
					return fmt.Errorf("%s: %s: %w", row, r.name, err)
				}
			}
		}
		got[row] = median(us)
		return nil
	}
	found := func(ok bool) error {
		if !ok {
			return fmt.Errorf("not found")
		}
		return nil
	}

	if err := each("service.parse_us", func(r request) error {
		_, err := service.ParseRequest(r.body)
		return err
	}); err != nil {
		return err
	}
	if err := each("service.digest_us", func(r request) error {
		_, err := r.req.Digest()
		return err
	}); err != nil {
		return err
	}

	cache := service.NewCache(len(sr.warm))
	if err := each("service.cache_put_us", func(r request) error {
		cache.Put(r.digest, sr.refs[r.digest])
		return nil
	}); err != nil {
		return err
	}
	if err := each("service.cache_get_us", func(r request) error {
		_, ok := cache.Get(r.digest)
		return found(ok)
	}); err != nil {
		return err
	}

	// A service holding every warm plan in its LRU, filled through the
	// Compute seam: Lookup and the whole handler on the hit path.
	hot := service.New(service.Config{CacheSize: len(sr.warm), Workers: 1, QueueDepth: len(sr.warm), Compute: sr.reference})
	defer shutdown(hot)
	for _, r := range sr.warm {
		job, _, err := hot.Submit(r.req, r.digest)
		if err != nil {
			return err
		}
		<-job.Done()
	}
	if err := each("service.lookup_hit_us", func(r request) error {
		_, ok := hot.Lookup(r.digest)
		return found(ok)
	}); err != nil {
		return err
	}
	handler := hot.Handler()
	if err := each("service.handler_hit_us", func(r request) error {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/partition", bytes.NewReader(r.body)))
		if rec.Code != 200 || !bytes.Equal(rec.Body.Bytes(), sr.refs[r.digest]) {
			return fmt.Errorf("handler answered %d", rec.Code)
		}
		return nil
	}); err != nil {
		return err
	}
	if !sr.w.Store {
		// http.overhead_us is what the process boundary adds on the hit
		// path: net/http on both ends, loopback, and the slog access log.
		got["http.overhead_us"] = got["raw.req_p50_us"] - got["service.handler_hit_us"]
	}

	if sr.w.Store {
		st, err := store.Open(sr.stored, store.Options{})
		if err != nil {
			return err
		}
		if err := each("store.get_us", func(r request) error {
			_, _, err := st.Get(r.digest)
			return err
		}); err != nil {
			return err
		}
		// A one-entry LRU over the filled store: every Lookup of a shuffled
		// pass reads, checksums, decodes and promotes.
		cold := service.New(service.Config{CacheSize: 1, Store: st, Workers: 1, Compute: sr.reference})
		defer shutdown(cold)
		if err := each("service.lookup_store_us", func(r request) error {
			_, ok := cold.Lookup(r.digest)
			return found(ok)
		}); err != nil {
			return err
		}
		scratch, err := store.Open(filepath.Join(sr.dir, "store-probe"), store.Options{})
		if err != nil {
			return err
		}
		if err := each("store.put_us", func(r request) error {
			return scratch.Put(store.Meta{Digest: r.digest, Workers: r.req.Workers}, sr.refs[r.digest])
		}); err != nil {
			return err
		}
	}

	// The job path of a miss: a real search submitted to a one-worker pool.
	miss := service.New(service.Config{Workers: 1, Parallelism: 2})
	defer shutdown(miss)
	pool := sr.novel
	if pool == nil {
		pool = sr.warm
	}
	var wait, queued, run []float64
	for _, r := range shuffled(pool, rng)[:min(8, len(pool))] {
		t0 := time.Now()
		job, _, err := miss.Submit(r.req, r.digest)
		if err != nil {
			return err
		}
		if _, err, _ := miss.Wait(context.Background(), job, time.Minute); err != nil {
			return fmt.Errorf("service.run_ms: %s: %w", r.name, err)
		}
		wait = append(wait, time.Since(t0).Seconds()*1e3)
		st := job.Status()
		queued, run = append(queued, st.QueuedMs), append(run, st.RunMs)
	}
	got["service.submit_wait_ms"] = median(wait)
	got["service.queue_wait_ms"] = median(queued)
	got["service.run_ms"] = median(run)
	return nil
}

func shutdown(svc *service.Service) {
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	_ = svc.Shutdown(ctx) //tofu:allow-errdrop probe teardown; nothing is in flight
}
