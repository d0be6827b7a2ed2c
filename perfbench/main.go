// Command perfbench is the repository benchmark. It drives the analysis
// pipeline from outside, through the same public entry points its users call
// (core.Analyze, corpus.Run, and the pardetectd and pardetectrouter HTTP
// handlers), with every analysis pinned to the regvm engine.
//
// One run measures three legs:
//
//   - table3: sequential core.Analyze passes over the 19 registered apps;
//   - corpus: cold and warm corpus.Run passes over ~1000 fuzzer programs;
//   - serve:  a closed loop POSTing wire-IR programs to a router in front of
//     2 backends, 80% cache hits and 20% misses.
//
// --seed draws the corpus and the serve traffic. The workload sets the
// load's concurrency: serial runs the corpus with Jobs 1 and the serve loop
// on 1 connection, parallel with Jobs 2 and 2 connections. Every workload
// reports every end-to-end metric. With --trace 1 the run instead makes
// untimed and traced passes of each leg and reports the per-layer metrics.
// See README.md for the metric definitions.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload parallel --seed 1 --seconds 40 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"pardetect/internal/interp"
)

// engine is the interpreter every analysis of the benchmark runs on, so a
// change to a binary's default engine does not change the traffic.
const engine = interp.EngineRegVM

// hitPct is the share of a serve round drawn from the pre-warmed pool.
const hitPct = 80

// config sizes one run. The benchmark uses defaultConfig; tests shrink it.
type config struct {
	clients     int           // corpus Jobs and serve connections
	window      time.Duration // measurement time, shared by the three legs
	setups      int           // full set-ups per run; setup_s is their median
	corpusFiles int           // programs in the corpus leg
	poolSize    int           // pre-warmed serve programs (the hits)
	roundReqs   int           // requests per serve round
	refSample   int           // programs per leg checked against the tree engine
	minCycles   int           // measurement cycles at least
}

func defaultConfig(clients int, window time.Duration) config {
	return config{
		clients:     clients,
		window:      window,
		setups:      5,
		corpusFiles: 1000,
		poolSize:    64,
		roundReqs:   500,
		refSample:   16,
		minCycles:   4,
	}
}

// workloads maps each workload to its load's concurrency, which is at
// most nproc (2) goroutines or connections.
var workloads = map[string]int{"serial": 1, "parallel": 2}

func workloadClients(name string) (int, error) {
	if n, ok := workloads[name]; ok {
		return n, nil
	}
	return 0, fmt.Errorf("unknown workload %q (valid: serial, parallel)", name)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts operations and collects output-check failures.
type tally struct {
	attempted, failed int64
	problems          []string
}

// op records one operation and whether it failed.
func (t *tally) op(failed bool) {
	t.attempted++
	if failed {
		t.failed++
	}
}

// check records a failed output check when ok is false.
func (t *tally) check(ok bool, format string, args ...any) {
	if !ok {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

func (t *tally) correct() bool { return len(t.problems) == 0 && t.failed == 0 }

// metrics collects named metrics with their units.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

func main() {
	workload := flag.String("workload", "", "workload: serial or parallel")
	seed := flag.Uint64("seed", 1, "seed of the corpus and the serve traffic")
	seconds := flag.Int("seconds", 40, "measurement time of one run (1..60)")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	if *seconds < 1 || *seconds > 60 || (*traceFlag != 0 && *traceFlag != 1) || flag.NArg() > 0 {
		fatalf("bad arguments: -seconds must be 1..60 and -trace 0 or 1")
	}
	clients, err := workloadClients(*workload)
	if err != nil {
		fatalf("%v", err)
	}
	work, err := filepath.Abs(filepath.Join(".bench_build", "work-"+strconv.Itoa(os.Getpid())))
	if err != nil {
		fatalf("%v", err)
	}
	res, err := run(defaultConfig(clients, time.Duration(*seconds)*time.Second), *seed, work, *traceFlag == 1)
	if err != nil {
		fatalf("%v", err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// run performs one benchmark run in the scratch directory work, which it
// creates and removes. A timed run sets up cfg.setups times and reports the
// median set-up time; a traced run, which reports no set-up time, sets up
// once.
func run(cfg config, seed uint64, work string, traced bool) (*result, error) {
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer func() {
		os.RemoveAll(work)
		// Flush the deletions, so the next run does not start while the
		// file system still writes them back.
		syscall.Sync()
	}()

	var t tally
	m := metrics{}
	setups := cfg.setups
	if traced {
		setups = 1
	}
	var setupS []float64
	var e *env
	var rigs []*serveLeg
	defer func() {
		for _, r := range rigs {
			r.close()
		}
	}()
	for i := 0; i < setups; i++ {
		// Start each set-up from the same state: no dirty pages of the
		// previous one left to write back, no garbage left to collect.
		syscall.Sync()
		runtime.GC()
		t0 := time.Now()
		var err error
		e, err = setup(cfg, seed, i, filepath.Join(work, fmt.Sprintf("setup-%d", i)))
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		rigs = append(rigs, e.sv)
	}
	// A rig's latency is partly its own (its ports, and with them the
	// router's key placement, its connections), so the timed run spreads
	// its serve rounds over every set-up's rig.
	e.rigs = rigs

	if traced {
		if err := e.traced(m, &t); err != nil {
			return nil, err
		}
	} else {
		m.set("setup_s", median(setupS), "s")
		if err := e.timed(m, &t); err != nil {
			return nil, err
		}
	}
	for _, p := range t.problems {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
	}
	return &result{Correct: t.correct(), Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}

// env is one complete set-up: the three legs' inputs and the serving rig,
// plus the serving rigs of the run's other set-ups.
type env struct {
	cfg  config
	t3   *table3Leg
	cp   *corpusLeg
	sv   *serveLeg
	rigs []*serveLeg
}

func setup(cfg config, seed uint64, index int, dir string) (*env, error) {
	e := &env{cfg: cfg}
	var err error
	if e.t3, err = newTable3Leg(); err != nil {
		return nil, err
	}
	if e.cp, err = newCorpusLeg(cfg, seed, filepath.Join(dir, "corpus")); err != nil {
		return nil, err
	}
	if e.sv, err = newServeLeg(cfg, seed, index, filepath.Join(dir, "serve")); err != nil {
		return nil, err
	}
	return e, nil
}

// The legs' turns per cycle. A table3 pass takes about a fifth of a corpus
// cold/warm pair, a serve round about half of one.
const (
	table3PassesPerCycle = 2
	serveRoundsPerCycle  = 2
)

// timed measures every end-to-end metric. The legs take turns in cycles
// (table3 passes, one corpus pair, serve rounds on the next rig) until the
// window is spent, so a slow spell of the machine lands on all three legs
// instead of wiping out one leg's samples.
func (e *env) timed(m metrics, t *tally) error {
	rss := startRSS()
	defer rss.close()
	var peaks []float64
	start := time.Now()
	for cycle := 0; cycle < e.cfg.minCycles || time.Since(start) < e.cfg.window; cycle++ {
		for i := 0; i < table3PassesPerCycle; i++ {
			if err := e.t3.rep(t); err != nil {
				return err
			}
		}
		if err := e.cp.rep(t); err != nil {
			return err
		}
		rig := e.rigs[cycle%len(e.rigs)]
		for i := 0; i < serveRoundsPerCycle; i++ {
			if err := rig.rep(t); err != nil {
				return err
			}
		}
		p, err := rss.take()
		if err != nil {
			return err
		}
		peaks = append(peaks, p)
	}
	m.set("peak_rss_mb", median(peaks), "MB")
	if err := e.t3.report(m); err != nil {
		return err
	}
	if err := e.cp.report(m, t, e.cfg.refSample); err != nil {
		return err
	}
	return reportServe(e.rigs, m)
}

// traced makes untimed and traced passes of each leg and reports the
// per-layer metrics plus the tracing overhead of the legs whose traced pass
// repeats the untimed pass's work under timers (table3 and serve). The serve
// leg makes one more untimed round after the traced one, and the overhead
// takes the mean of the untimed rounds on either side of it: the first
// round after set-up ran 10–15% slower than the next.
func (e *env) traced(m metrics, t *tally) error {
	plain3, traced3, err := e.t3.traced(m, t)
	if err != nil {
		return err
	}
	if err := e.cp.traced(m, t, e.cfg); err != nil {
		return err
	}
	plainS, tracedS, err := e.sv.traced(m, t)
	if err != nil {
		return err
	}
	againS, err := e.sv.plain(t)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: traced: table3 untimed %.1f ms, traced %.1f ms; serve untimed %.1f/%.1f ms, traced %.1f ms\n",
		ms(plain3), ms(traced3), ms(plainS), ms(againS), ms(tracedS))
	plain, tr := plain3+(plainS+againS)/2, traced3+tracedS
	m.set("bench.trace_overhead_pct", 100*(tr-plain).Seconds()/plain.Seconds(), "%")
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}
