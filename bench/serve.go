package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"tofu/internal/plan"
	"tofu/internal/service"
	"tofu/internal/store"
)

const (
	sliceLen     = 250 * time.Millisecond
	serverProcs  = "GOMAXPROCS=2"
	bootTimeout  = 20 * time.Second
	drainTimeout = 20 * time.Second
)

// buildServer compiles the real tofu-serve binary into dir. Compilation is
// not part of any metric.
func buildServer(root, dir string) (string, error) {
	bin := filepath.Join(dir, "tofu-serve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/tofu-serve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/tofu-serve: %v\n%s", err, out)
	}
	return bin, nil
}

// server is one running tofu-serve process with its access log in a file.
type server struct {
	cmd  *exec.Cmd
	log  *os.File
	addr string
}

var listenRE = regexp.MustCompile(`listening on (\S+) `)

// startServer launches tofu-serve on a free loopback port and waits until it
// answers /healthz.
func startServer(bin, logPath string, args ...string) (*server, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stderr = logf
	cmd.Env = append(os.Environ(), serverProcs)
	if err := cmd.Start(); err != nil {
		logf.Close() //tofu:allow-errdrop the start error is being returned
		return nil, err
	}
	s := &server{cmd: cmd, log: logf}
	for deadline := time.Now().Add(bootTimeout); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		data, err := os.ReadFile(logPath)
		if err != nil {
			break
		}
		if m := listenRE.FindSubmatch(data); m != nil {
			s.addr = string(m[1])
			break
		}
	}
	// The announce line precedes the accept loop and the signal handler; a
	// health round trip is the readiness probe a deployment would use.
	for deadline := time.Now().Add(bootTimeout); s.addr != "" && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if resp, err := http.Get("http://" + s.addr + "/healthz"); err == nil {
			resp.Body.Close() //tofu:allow-errdrop only the status matters
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
	}
	s.stop()
	data, _ := os.ReadFile(logPath) //tofu:allow-errdrop best-effort context for the error below
	return nil, fmt.Errorf("tofu-serve never became ready; log:\n%s", data)
}

// stop drains the server with SIGTERM, kills it if the drain hangs, and
// waits until the process is gone. It reports whether the drain was clean.
func (s *server) stop() bool {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) //tofu:allow-errdrop an already-dead process is handled by Wait below
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(drainTimeout):
		_ = s.cmd.Process.Kill() //tofu:allow-errdrop Wait reports the outcome
		err = fmt.Errorf("drain timed out: %v", <-done)
	}
	s.log.Close() //tofu:allow-errdrop the log is only read back for diagnostics
	return err == nil
}

func (s *server) snapshot() (service.Snapshot, error) {
	var snap service.Snapshot
	resp, err := http.Get("http://" + s.addr + "/metrics")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return snap, json.NewDecoder(resp.Body).Decode(&snap)
}

// client is one closed-loop caller with its own keep-alive connection.
type client struct {
	hc  *http.Client
	url string
	buf bytes.Buffer
}

func newClient(addr string) *client {
	return &client{hc: &http.Client{Transport: &http.Transport{}}, url: "http://" + addr + "/v1/partition"}
}

// post sends one request and checks status and digest; the body stays in
// c.buf until the next call.
func (c *client) post(r request) error {
	resp, err := c.hc.Post(c.url, "application/json", bytes.NewReader(r.body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %s: %.200s", resp.Status, c.buf.Bytes())
	}
	if got := resp.Header.Get("Tofu-Digest"); got != r.digest {
		return fmt.Errorf("Tofu-Digest %q, want %q", got, r.digest)
	}
	return nil
}

// serveRun is a serve workload after its references are computed.
type serveRun struct {
	w      *workload
	bin    string
	dir    string // scratch directory of this run
	warm   []request
	refs   map[string][]byte // digest -> reference plan bytes
	novel  []request         // never-seen pool, seeded order
	stored string            // serve-churn: the filled store directory
	boots  int
}

// computeRefs is the reference pass: every warm request planned once,
// in-process, exactly as a cold workload times its ops. These are the plans
// the server must serve, so what they cost to plan cold and how good they
// are give the workload's plan_* and quality rows.
func (sr *serveRun) computeRefs(seed int64, got map[string]float64) error {
	c := &coldRun{w: sr.w, cases: sr.warm, refs: make([]*planned, len(sr.warm))}
	s := c.timed(seed, 0)
	if s.failed > 0 {
		return fmt.Errorf("%s: %d of %d reference plans failed", sr.w.Name, s.failed, s.attempted)
	}
	sr.refs = make(map[string][]byte, len(c.refs))
	for i, r := range sr.warm {
		b := c.refs[i].bytes
		if len(b) > 1<<20 {
			return fmt.Errorf("%s: plan is %d B, over the grid's 1 MiB limit", r.name, len(b))
		}
		if _, err := plan.ReadJSONExpect(bytes.NewReader(b), r.digest); err != nil {
			return fmt.Errorf("%s: %w", r.name, err)
		}
		sr.refs[r.digest] = b
	}
	c.planMetrics(s, got)
	return nil
}

// reference is a service.Config.Compute seam that answers with the reference
// plan instead of searching.
func (sr *serveRun) reference(r service.Request) ([]byte, error) {
	d, err := r.Digest()
	return sr.refs[d], err
}

// fillStore writes every reference plan into the run's store directory
// through an in-process service, so the entries are exactly what tofu-serve
// persists after searching them (header, model digest, warm-start steps).
func (sr *serveRun) fillStore() error {
	sr.stored = filepath.Join(sr.dir, "store")
	st, err := store.Open(sr.stored, store.Options{})
	if err != nil {
		return err
	}
	svc := service.New(service.Config{Store: st, Workers: 1, QueueDepth: len(sr.warm), Compute: sr.reference})
	for _, r := range sr.warm {
		job, _, err := svc.Submit(r.req, r.digest)
		if err != nil {
			return fmt.Errorf("store fill: %s: %w", r.name, err)
		}
		<-job.Done()
		if _, err := job.Result(); err != nil {
			return fmt.Errorf("store fill: %s: %w", r.name, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		return err
	}
	if n := st.Stats().Puts; n != int64(len(sr.warm)) {
		return fmt.Errorf("store fill: %d puts for %d plans", n, len(sr.warm))
	}
	return nil
}

// boot is one set-up: a fresh server made ready for timed traffic. On
// serve-churn that is a restart onto the filled store (set-ups only read it,
// so they share the one directory); otherwise it is a start and a pre-fill
// of every warm request over HTTP.
func (sr *serveRun) boot() (*server, error) {
	sr.boots++
	args := sr.w.ServerArgs
	if sr.w.Store {
		args = append(append([]string(nil), args...), "-store", sr.stored)
	}
	srv, err := startServer(sr.bin, filepath.Join(sr.dir, fmt.Sprintf("access-%d.log", sr.boots)), args...)
	if err != nil {
		return nil, err
	}
	if !sr.w.Store {
		if err := sr.prefill(srv); err != nil {
			srv.stop()
			return nil, err
		}
	}
	return srv, nil
}

// eachIndex runs fn(worker, i) for every i in [0, n) on the given number of
// goroutines and waits for them.
func eachIndex(workers, n int, fn func(worker, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(w, i)
			}
		}()
	}
	wg.Wait()
}

// prefill posts every warm request once, the workload's clients side by
// side, and checks each answer.
func (sr *serveRun) prefill(srv *server) error {
	clients := make([]*client, sr.w.Clients)
	for i := range clients {
		clients[i] = newClient(srv.addr)
	}
	errs := make([]error, len(sr.warm))
	eachIndex(len(clients), len(sr.warm), func(w, i int) {
		r := sr.warm[i]
		if err := clients[w].post(r); err != nil {
			errs[i] = fmt.Errorf("pre-fill %s: %w", r.name, err)
		} else if !bytes.Equal(clients[w].buf.Bytes(), sr.refs[r.digest]) {
			errs[i] = fmt.Errorf("pre-fill %s: body differs from the reference plan", r.name)
		}
	})
	for _, c := range clients {
		c.hc.CloseIdleConnections()
	}
	return errors.Join(errs...)
}

// served is one answered request of the timed run.
type served struct {
	us    float64 // latency, normalized by its slice's calibration
	rawUs float64
	novel bool
}

// answer is a never-seen request's response, kept to verify after the run.
type answer struct {
	req  request
	body []byte
}

type loadResult struct {
	samples           []served
	sliceRate         []float64 // normalized req/s per slice
	rawRate           []float64
	calibMs           []float64
	answers           []answer
	attempted, failed int
}

// load is the timed run: closed-loop clients in 250 ms slices with a
// calibration between slices, while the server idles. Each client draws warm
// requests uniformly; every NovelEvery-th request of a client is the next
// unused entry of the never-seen pool.
func (sr *serveRun) load(srv *server, seed int64, seconds float64) loadResult {
	type clientState struct {
		c       *client
		rng     *rand.Rand
		sent    int
		samples []served
		answers []answer
		failed  int
		from    int // index of the current slice's first sample
	}
	clients := make([]*clientState, sr.w.Clients)
	for i := range clients {
		// Clients start out of phase, so their never-seen requests do not
		// queue behind each other in the server's one-worker pool.
		clients[i] = &clientState{c: newClient(srv.addr), rng: rand.New(rand.NewSource(seed*1000 + int64(i))),
			sent: i * sr.w.NovelEvery / len(clients)}
	}
	var nextNovel atomic.Int64
	var res loadResult

	runtime.GC()
	calA := calibrate()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for first := true; first || time.Now().Before(deadline); first = false {
		var wg sync.WaitGroup
		start := time.Now()
		sliceEnd := start.Add(sliceLen)
		for _, cs := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(sliceEnd) {
					cs.sent++
					r, novel := sr.warm[cs.rng.Intn(len(sr.warm))], false
					if sr.w.NovelEvery > 0 && cs.sent%sr.w.NovelEvery == 0 {
						if i := int(nextNovel.Add(1)) - 1; i < len(sr.novel) {
							r, novel = sr.novel[i], true
						}
					}
					t0 := time.Now()
					err := cs.c.post(r)
					us := time.Since(t0).Seconds() * 1e6
					switch {
					case err != nil:
						fmt.Fprintf(os.Stderr, "FAIL %s: %v\n", r.name, err)
						cs.failed++
						continue
					case novel:
						cs.answers = append(cs.answers, answer{r, append([]byte(nil), cs.c.buf.Bytes()...)})
					case !bytes.Equal(cs.c.buf.Bytes(), sr.refs[r.digest]):
						fmt.Fprintf(os.Stderr, "FAIL %s: body differs from the reference plan\n", r.name)
						cs.failed++
						continue
					}
					cs.samples = append(cs.samples, served{rawUs: us, novel: novel})
				}
			}()
		}
		wg.Wait()
		wall := time.Since(start).Seconds()
		runtime.GC()
		calB := calibrate()
		cal := (calA + calB) / 2
		calA = calB
		n := 0
		for _, cs := range clients {
			// Normalize the slice's samples now that both adjacent
			// calibrations are known.
			for i := cs.from; i < len(cs.samples); i++ {
				cs.samples[i].us = normalize(cs.samples[i].rawUs, cal)
			}
			n += len(cs.samples) - cs.from
			cs.from = len(cs.samples)
		}
		res.calibMs = append(res.calibMs, cal)
		res.rawRate = append(res.rawRate, float64(n)/wall)
		res.sliceRate = append(res.sliceRate, float64(n)/wall*cal/calibRefMs)
	}
	for _, cs := range clients {
		res.samples = append(res.samples, cs.samples...)
		res.answers = append(res.answers, cs.answers...)
		res.attempted += len(cs.samples) + cs.failed
		res.failed += cs.failed
		cs.c.hc.CloseIdleConnections()
	}
	return res
}

// reduce turns a timed run into metric rows.
func (l loadResult) reduce(got map[string]float64) {
	var warm, warmRaw, miss, missRaw []float64
	for _, s := range l.samples {
		if s.novel {
			miss, missRaw = append(miss, s.us), append(missRaw, s.rawUs)
		} else {
			warm, warmRaw = append(warm, s.us), append(warmRaw, s.rawUs)
		}
	}
	got["req_per_s_norm"] = median(l.sliceRate)
	got["req_p50_norm_us"] = median(warm)
	got["req_p99_norm_us"] = percentile(warm, 0.99)
	got["miss_p50_norm_ms"] = median(miss) / 1e3
	got["raw.req_per_s"] = median(l.rawRate)
	got["raw.req_p50_us"] = median(warmRaw)
	got["raw.req_p99_us"] = percentile(warmRaw, 0.99)
	got["raw.miss_p50_ms"] = median(missRaw) / 1e3
	got["raw.calib_ms"] = median(l.calibMs)
	fmt.Fprintf(os.Stderr, "  %d slices, %d warm and %d never-seen answers; p50 %.0f us, p99 %.0f us, %.0f req/s (normalized)\n",
		len(l.sliceRate), len(warm), len(miss), got["req_p50_norm_us"], got["req_p99_norm_us"], got["req_per_s_norm"])
}

// verifyNovel recomputes every never-seen request that was answered and
// compares bytes; it returns one line per violation.
func verifyNovel(answers []answer) []string {
	bad := make([]string, len(answers))
	eachIndex(2, len(answers), func(_, i int) {
		a := answers[i]
		ref, err := service.ComputePlan(a.req.req, 1)
		if err != nil || !bytes.Equal(ref, a.body) {
			bad[i] = fmt.Sprintf("%s: served body differs from service.ComputePlan (err=%v)", a.req.name, err)
		}
	})
	return slices.DeleteFunc(bad, func(b string) bool { return b == "" })
}

// printLogTail keeps the end of a failed run's access log readable after the
// scratch directory is removed.
func printLogTail(path string) {
	data, err := os.ReadFile(path)
	if err == nil && len(data) > 4096 {
		data = data[len(data)-4096:]
	}
	fmt.Fprintf(os.Stderr, "--- tail of %s ---\n%s\n", path, data)
}
