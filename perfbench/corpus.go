package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"pardetect/internal/core"
	"pardetect/internal/corpus"
	"pardetect/internal/interp"
	"pardetect/internal/ir"
	"pardetect/internal/store"
	"pardetect/internal/wire"
)

// corpusLeg runs corpus.Run over a generated fuzzer corpus: a cold pass from
// an empty manifest and store, then a warm pass over the unchanged corpus.
type corpusLeg struct {
	seed  uint64
	jobs  int
	dir   string // holds files/ (the corpus) and one state dir per pair
	files string
	n     int
	pairs int // state directories handed out so far

	coldMs, warmMs []float64      // timed pairs
	firstCold      *corpus.Report // checked against the tree engine
}

func newCorpusLeg(cfg config, seed uint64, dir string) (*corpusLeg, error) {
	l := &corpusLeg{seed: seed, jobs: cfg.clients, dir: dir, files: filepath.Join(dir, "files"), n: cfg.corpusFiles}
	if err := corpus.GenerateFiles(l.files, l.n, seed*1_000_003); err != nil {
		return nil, err
	}
	return l, nil
}

// pair runs one cold and one warm pass against fresh manifest and store
// locations and returns both reports with their wall times. The state
// directories stay until the run ends: deleting thousands of files while
// later passes write their own stores slows those passes by a varying
// amount.
func (l *corpusLeg) pair() (cold, warm *corpus.Report, coldT, warmT time.Duration, err error) {
	state := filepath.Join(l.dir, fmt.Sprintf("state-%d", l.pairs))
	l.pairs++
	opts := corpus.Options{
		Dir:      l.files,
		Manifest: filepath.Join(state, "manifest.json"),
		StoreDir: filepath.Join(state, "store"),
		Jobs:     l.jobs,
		Engine:   engine,
	}
	if err := os.MkdirAll(state, 0o755); err != nil {
		return nil, nil, 0, 0, err
	}
	// Flush earlier pairs' dirty pages, so their writeback does not land
	// inside this pair's timed passes.
	syscall.Sync()
	runtime.GC()
	t0 := time.Now()
	if cold, err = corpus.Run(opts); err != nil {
		return nil, nil, 0, 0, fmt.Errorf("corpus: cold pass: %w", err)
	}
	coldT = time.Since(t0)
	t0 = time.Now()
	if warm, err = corpus.Run(opts); err != nil {
		return nil, nil, 0, 0, fmt.Errorf("corpus: warm pass: %w", err)
	}
	warmT = time.Since(t0)
	return cold, warm, coldT, warmT, nil
}

// checkPair checks the pass counts: the cold pass analyses every program,
// the warm pass skips every program.
func (l *corpusLeg) checkPair(cold, warm *corpus.Report, t *tally) {
	for range cold.Results {
		t.op(false)
	}
	for range warm.Results {
		t.op(false)
	}
	t.failed += int64(cold.Failed + warm.Failed)
	t.check(cold.Programs == l.n && cold.Analyzed == l.n,
		"corpus: cold pass analysed %d of %d programs", cold.Analyzed, l.n)
	t.check(warm.Programs == l.n && warm.Skipped == l.n && warm.Analyzed == 0,
		"corpus: warm pass skipped %d and analysed %d of %d programs", warm.Skipped, warm.Analyzed, l.n)
}

// checkReference re-analyses a seeded sample of the corpus on the tree
// engine, the reference implementation, and compares each result with the
// cold report's.
func (l *corpusLeg) checkReference(cold *corpus.Report, sample int, t *tally) error {
	byPath := map[string]corpus.ProgramResult{}
	for _, r := range cold.Results {
		byPath[r.Path] = r
	}
	rng := rand.New(rand.NewSource(int64(l.seed)))
	for _, i := range rng.Perm(l.n)[:min(sample, l.n)] {
		name := corpus.FileName(i)
		data, err := os.ReadFile(filepath.Join(l.files, name))
		if err != nil {
			return err
		}
		fp, headline, err := referenceResult(data)
		if err != nil {
			return fmt.Errorf("corpus: reference analysis of %s: %w", name, err)
		}
		got := byPath[name]
		t.check(got.Fingerprint == fp && got.Headline == headline,
			"corpus: %s result %s %q, tree engine says %s %q", name, got.Fingerprint, got.Headline, fp, headline)
	}
	return nil
}

// referenceResult analyses a wire-IR program on the tree engine.
func referenceResult(data []byte) (fingerprint, headline string, err error) {
	p, err := wire.DecodeProgram(data)
	if err != nil {
		return "", "", err
	}
	res, err := core.Analyze(p, analyzeOpts(interp.EngineTree))
	if err != nil {
		return "", "", err
	}
	return res.Fingerprint(), res.Headline, nil
}

// rep runs one timed cold/warm pair and checks it.
func (l *corpusLeg) rep(t *tally) error {
	cold, warm, coldT, warmT, err := l.pair()
	if err != nil {
		return err
	}
	l.coldMs = append(l.coldMs, ms(coldT))
	l.warmMs = append(l.warmMs, ms(warmT))
	l.checkPair(cold, warm, t)
	if l.firstCold == nil {
		l.firstCold = cold
	}
	return nil
}

func (l *corpusLeg) report(m metrics, t *tally, sample int) error {
	fmt.Fprintf(os.Stderr, "perfbench: corpus: %d cold/warm pairs\n", len(l.coldMs))
	m.set("cold_pass_ms", median(l.coldMs), "ms")
	m.set("warm_pass_ms", median(l.warmMs), "ms")
	return l.checkReference(l.firstCold, sample, t)
}

// traced makes one cold/warm pair for the pass counts, then replays the
// corpus pass's layers one at a time through their public functions:
// listing and reading the files, decoding, fingerprinting, analysing the
// distinct programs sequentially, and writing corpus-shaped store records.
func (l *corpusLeg) traced(m metrics, t *tally, cfg config) error {
	cold, warm, _, _, err := l.pair()
	if err != nil {
		return err
	}
	l.checkPair(cold, warm, t)
	for name, rep := range map[string]*corpus.Report{"cold": cold, "warm": warm} {
		m.set("corpus."+name+".analyzed", float64(rep.Analyzed), "count")
		m.set("corpus."+name+".skipped", float64(rep.Skipped), "count")
		m.set("corpus."+name+".cached", float64(rep.Cached), "count")
		m.set("corpus."+name+".failed", float64(rep.Failed), "count")
	}

	runtime.GC()
	var readT, decodeT, fpT, analyzeT, putT time.Duration
	var docs [][]byte
	var nbytes int64
	var readErr error
	timeInto(&readT, func() {
		ents, err := os.ReadDir(l.files)
		if err != nil {
			readErr = err
			return
		}
		for _, e := range ents {
			data, err := os.ReadFile(filepath.Join(l.files, e.Name()))
			if err != nil {
				readErr = err
				return
			}
			docs = append(docs, data)
			nbytes += int64(len(data))
		}
	})
	if readErr != nil {
		return readErr
	}
	progs := make([]*ir.Program, len(docs))
	for i, d := range docs {
		var err error
		timeInto(&decodeT, func() { progs[i], err = wire.DecodeProgram(d) })
		if err != nil {
			return fmt.Errorf("corpus: decode: %w", err)
		}
	}
	distinct := map[string]*ir.Program{}
	var order []string
	for _, p := range progs {
		var key string
		timeInto(&fpT, func() { key = core.ProgramFingerprint(p) })
		if _, dup := distinct[key]; !dup {
			distinct[key] = p
			order = append(order, key)
		}
	}
	entries := make([]*store.Entry, 0, len(order))
	for _, key := range order {
		p := distinct[key]
		var res *core.Result
		var err error
		timeInto(&analyzeT, func() { res, err = core.Analyze(p, analyzeOpts(engine)) })
		t.op(err != nil)
		if err != nil {
			return fmt.Errorf("corpus: analyse %s: %w", p.Name, err)
		}
		entries = append(entries, &store.Entry{
			Key: key, Program: p.Name, Headline: res.Headline,
			Fingerprint: res.Fingerprint(), Body: []byte(res.Summary()),
		})
	}
	stDir := filepath.Join(l.dir, "put-store")
	st, err := store.Open(store.Options{Dir: stDir, MaxEntries: 2 * len(entries)})
	if err != nil {
		return err
	}
	for _, e := range entries {
		var err error
		timeInto(&putT, func() { _, err = st.Put(e) })
		if err != nil {
			return fmt.Errorf("corpus: store put: %w", err)
		}
	}
	m.set("corpus.read_ms", ms(readT), "ms")
	m.set("wire.decode_ms", ms(decodeT), "ms")
	m.set("core.fingerprint_ms", ms(fpT), "ms")
	m.set("core.analyze_ms", ms(analyzeT), "ms")
	m.set("store.put_ms", ms(putT), "ms")
	m.set("wire.bytes", float64(nbytes), "bytes")
	return l.checkReference(cold, cfg.refSample, t)
}
