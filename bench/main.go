// Command bench is the repository's benchmark: five workloads over the
// partition search and the real tofu-serve binary, end-to-end metrics
// normalized against a frozen calibration loop, and a per-layer ledger.
// README.md has the metric tables and how to compare two commits.
//
// One workload, as the benchmark driver runs it (the last line of standard
// output is one JSON object; everything for people goes to standard error):
//
//	go run ./bench --workload cold-flat --seed 1 --seconds 15 --trace 0
//
// The whole suite into one document, and a comparison of two of them:
//
//	go run ./bench -all -seed 1 -out a.json
//	go run ./bench -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// processStart is read as early as a Go program can, so a set-up time
// includes everything the process did before it was ready.
var processStart = time.Now()

// setupRepeats is how many fresh set-ups a run times; setup_s is their
// median.
const setupRepeats = 3

// config is one workload run.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool   // one short pass over a reduced grid; never comparable
	root     string // the checkout: go.mod, cmd/tofu-serve, and .bench_build for scratch
}

func main() {
	runtime.GOMAXPROCS(2)
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for case order and request draws")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "length of the measured run")
	flag.IntVar(&trace, "trace", 0, "0 reports the end-to-end metrics, 1 the per-layer ledger")
	flag.BoolVar(&cfg.quick, "quick", false, "smoke mode: reduced grids, one short pass; output is marked and never comparable")
	flag.StringVar(&cfg.root, "root", ".", "checkout root")
	all := flag.Bool("all", false, "run every workload, both trace modes, in child processes")
	out := flag.String("out", "", "with -all: write the suite document here (default standard output)")
	runs := flag.Int("runs", 1, "with -all: repeat the suite this many times, seeds seed..seed+runs-1")
	compare := flag.Bool("compare", false, "compare two suite documents: -compare a.json b.json")
	setupOnly := flag.Bool("setup-only", false, "internal: run the cold set-up of -workload and print its seconds")
	flag.Parse()

	var err error
	switch {
	case *compare:
		err = compareMain(flag.Args())
	case *all:
		err = suiteMain(cfg, *runs, *out)
	case *setupOnly:
		err = setupOnlyMain(cfg)
	default:
		cfg.trace = trace != 0
		var res result
		if res, err = runWorkload(cfg); err == nil {
			err = json.NewEncoder(os.Stdout).Encode(res)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runWorkload runs one workload in one trace mode and returns the result
// line. An error means the run could not be made; a run that was made but
// produced wrong outputs returns correct=false.
func runWorkload(cfg config) (result, error) {
	w, err := loadWorkload(cfg.workload)
	if err != nil {
		return result{}, err
	}
	if cfg.quick {
		cfg.seconds = 0 // the first pass (cold) or one slice (serve) still runs
	}
	got := map[string]float64{}
	var res result
	var bad []string
	switch w.Kind {
	case "cold":
		res, bad, err = runCold(cfg, w, got)
	case "serve":
		res, bad, err = runServe(cfg, w, got)
	default:
		err = fmt.Errorf("workload %s: unknown kind %q", w.Name, w.Kind)
	}
	if err != nil {
		return result{}, err
	}
	for _, b := range bad {
		fmt.Fprintln(os.Stderr, "CHECK FAILED", b)
	}
	res.Correct = len(bad) == 0 && res.Failed == 0
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res.Metrics = report(defs, got)
	for _, d := range defs {
		fmt.Fprintf(os.Stderr, "%-30s %16.6g %s\n", d.Name, got[d.Name], d.Unit)
	}
	return res, nil
}

func runCold(cfg config, w *workload, got map[string]float64) (result, []string, error) {
	// Set-up is timed in fresh processes, this one first: only a fresh
	// process pays the lazy initialisation a job launcher would pay.
	c, err := coldSetup(w, cfg.quick)
	if err != nil {
		return result{}, nil, err
	}
	setups := []float64{time.Since(processStart).Seconds()}
	for i := 1; i < setupRepeats && !cfg.quick; i++ {
		s, err := childSetup(cfg)
		if err != nil {
			return result{}, nil, err
		}
		setups = append(setups, s)
	}
	got["setup_s"] = median(setups)
	fmt.Fprintf(os.Stderr, "%s: set-ups %.3v s\n", w.Name, setups)

	var res result
	if cfg.trace {
		res.Attempted, res.Failed = c.layers(cfg.seed, cfg.seconds, got)
	} else {
		s := c.timed(cfg.seed, cfg.seconds)
		res.Attempted, res.Failed = s.attempted, s.failed
		// Peak memory is read before verify searches the baselines.
		if got["peak_rss_mb"], err = peakRSSMB(os.Getpid()); err != nil {
			return result{}, nil, err
		}
		c.planMetrics(s, got)
		c.requestMetrics(s, got)
	}
	return res, c.verify(), nil
}

// childSetup times the workload's set-up in a fresh copy of this process.
func childSetup(cfg config) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "-setup-only", "-workload", cfg.workload)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up child: %w", err)
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}

func setupOnlyMain(cfg config) error {
	w, err := loadWorkload(cfg.workload)
	if err != nil {
		return err
	}
	if _, err := coldSetup(w, false); err != nil {
		return err
	}
	_, err = fmt.Println(time.Since(processStart).Seconds())
	return err
}

func runServe(cfg config, w *workload, got map[string]float64) (res result, bad []string, err error) {
	scratch := filepath.Join(cfg.root, ".bench_build")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return res, nil, err
	}
	sr := &serveRun{w: w}
	if sr.dir, err = os.MkdirTemp(scratch, "run-"); err != nil {
		return res, nil, err
	}
	defer os.RemoveAll(sr.dir) //tofu:allow-errdrop scratch cleanup; a leftover directory is ignored by git
	if sr.bin, err = buildServer(cfg.root, scratch); err != nil {
		return res, nil, err
	}
	if sr.warm, err = w.grid(nil, cfg.quick); err != nil {
		return res, nil, err
	}
	if w.NovelEvery > 0 {
		pool, err := w.grid(w.NovelBatches, cfg.quick)
		if err != nil {
			return res, nil, err
		}
		sr.novel = shuffled(pool, rand.New(rand.NewSource(cfg.seed)))
	}
	if err := sr.computeRefs(cfg.seed, got); err != nil {
		return res, nil, err
	}
	if w.Store {
		if err := sr.fillStore(); err != nil {
			return res, nil, err
		}
	}

	// Set-up, several times over; the last server stays up for the run. A
	// set-up that takes a fraction of a second is repeated more often, so
	// the median of a short time is as steady as that of a long one.
	var srv *server
	var setups []float64
	for spent := 0.0; len(setups) < setupRepeats || (spent < 1.5 && len(setups) < 3*setupRepeats); {
		if srv != nil && !srv.stop() {
			bad = append(bad, "a set-up server did not drain cleanly")
		}
		t0 := time.Now()
		if srv, err = sr.boot(); err != nil {
			return res, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		spent += setups[len(setups)-1]
		if cfg.quick {
			break
		}
	}
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	got["setup_s"] = median(setups)
	fmt.Fprintf(os.Stderr, "%s: %d warm requests, set-ups %.3v s\n", w.Name, len(sr.warm), setups)

	before, err := srv.snapshot()
	if err != nil {
		return res, nil, err
	}
	seconds := cfg.seconds
	if cfg.trace {
		seconds /= 2 // the other half goes to the in-process layer probes
	}
	l := sr.load(srv, cfg.seed, seconds)
	l.reduce(got)
	res.Attempted, res.Failed = l.attempted, l.failed
	after, err := srv.snapshot()
	if err != nil {
		return res, nil, err
	}
	if got["peak_rss_mb"], err = peakRSSMB(srv.cmd.Process.Pid); err != nil {
		return res, nil, err
	}
	logPath := srv.log.Name()
	clean := srv.stop()
	srv = nil
	if !clean {
		bad = append(bad, "tofu-serve did not drain cleanly")
	}
	if fi, err := os.Stat(logPath); err != nil || fi.Size() == 0 {
		bad = append(bad, "tofu-serve wrote no access log")
	}

	// The server's own counters over the timed run: it must have searched
	// exactly the never-seen requests it was sent, and nothing else.
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	searches := after.JobsDone - before.JobsDone
	got["service.hits"], got["service.misses"] = float64(hits), float64(misses)
	got["service.coalesced"] = float64(after.Coalesced - before.Coalesced)
	got["service.store_served"] = float64(after.StoreServed - before.StoreServed)
	got["service.jobs_done"] = float64(searches)
	if hits+misses > 0 {
		got["service.hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	got["service.search_p50_ms"] = after.SearchP50Ms
	if int(searches) != len(l.answers) || after.JobsFailed != 0 {
		bad = append(bad, fmt.Sprintf("server ran %d searches (%d failed) for %d never-seen requests",
			searches, after.JobsFailed, len(l.answers)))
	}
	bad = append(bad, verifyNovel(l.answers)...)
	if len(bad) > 0 || l.failed > 0 {
		printLogTail(logPath)
	}

	if cfg.trace {
		if err := sr.probes(cfg.seed, cfg.seconds/2, got); err != nil {
			return res, nil, err
		}
	}
	return res, bad, nil
}
