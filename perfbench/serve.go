package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pardetect/internal/fuzzer"
	"pardetect/internal/router"
	"pardetect/internal/server"
	"pardetect/internal/wire"
)

// reqHeader carries a request's index in its round, so the handler timers
// of the router and the backend can be matched with the client's sample.
// The router forwards request headers to the backend unchanged.
const reqHeader = "X-Perfbench-Req"

// handlerTimer wraps an http.Handler and, while recording, stores each
// indexed request's handler time.
type handlerTimer struct {
	h  http.Handler
	mu sync.Mutex
	ns map[int]time.Duration // nil when not recording
}

func (ht *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	ht.h.ServeHTTP(w, r)
	d := time.Since(t0)
	ht.mu.Lock()
	defer ht.mu.Unlock()
	if ht.ns == nil {
		return
	}
	if i, err := strconv.Atoi(r.Header.Get(reqHeader)); err == nil {
		ht.ns[i] = d
	}
}

func (ht *handlerTimer) recorded() int {
	ht.mu.Lock()
	defer ht.mu.Unlock()
	return len(ht.ns)
}

// record starts (on) or stops recording and returns what was recorded.
func (ht *handlerTimer) record(on bool) map[int]time.Duration {
	ht.mu.Lock()
	defer ht.mu.Unlock()
	got := ht.ns
	ht.ns = nil
	if on {
		ht.ns = map[int]time.Duration{}
	}
	return got
}

// listener is one in-process HTTP server on a loopback port.
type listener struct {
	url   string
	hs    *http.Server
	timer *handlerTimer
	done  chan struct{}
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{url: "http://" + ln.Addr().String(), timer: &handlerTimer{h: h}, done: make(chan struct{})}
	l.hs = &http.Server{Handler: l.timer}
	go func() {
		defer close(l.done)
		l.hs.Serve(ln)
	}()
	return l, nil
}

// shutdown stops accepting, waits for in-flight requests and for Serve to
// return.
func (l *listener) shutdown(ctx context.Context) {
	l.hs.Shutdown(ctx)
	<-l.done
}

// serveLeg is the serving rig: a router in front of two pardetectd
// backends, each with its own store directory, all in this process, and a
// closed-loop client.
type serveLeg struct {
	cfg      config
	seed     uint64
	rig      int // index of the set-up that started this rig
	servers  []*server.Server
	backends []*listener
	rt       *router.Router
	front    *listener
	client   *http.Client
	pool     [][]byte
	poolFP   []string // each pool program's result fingerprint
	planned  int      // rounds planned so far; each gets fresh miss seeds

	timed []roundSample
}

// roundSample is one timed round: its hit and miss latencies in ms, kept
// apart because their distributions do not overlap, and its wall time.
type roundSample struct {
	hits, misses []float64
	wall         time.Duration
}

const backends = 2

func newServeLeg(cfg config, seed uint64, rig int, dir string) (l *serveLeg, err error) {
	l = &serveLeg{cfg: cfg, seed: seed, rig: rig}
	defer func() {
		if err != nil {
			l.close()
		}
	}()
	var urls []string
	for i := 0; i < backends; i++ {
		srv, err := server.New(server.Options{
			Queue:         64,
			DefaultEngine: engine,
			StoreDir:      filepath.Join(dir, fmt.Sprintf("store-%d", i)),
		})
		if err != nil {
			return l, err
		}
		l.servers = append(l.servers, srv)
		b, err := listen(srv.Handler())
		if err != nil {
			return l, err
		}
		l.backends = append(l.backends, b)
		urls = append(urls, b.url)
	}
	if l.rt, err = router.New(router.Options{Backends: urls}); err != nil {
		return l, err
	}
	if l.front, err = listen(l.rt.Handler()); err != nil {
		return l, err
	}
	l.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: cfg.clients,
		MaxConnsPerHost:     cfg.clients,
		DisableCompression:  true,
	}}

	// Pre-warm: every pool program once (a miss), then once more as the
	// untimed warm-up (a hit).
	for i := 0; i < cfg.poolSize; i++ {
		body, err := programBody(l.seed<<32 + uint64(i) + 1)
		if err != nil {
			return l, err
		}
		l.pool = append(l.pool, body)
	}
	for pass, want := range []string{"miss", "hit"} {
		for i, body := range l.pool {
			s := l.post(body, -1)
			if s.err != nil || s.status != http.StatusOK || s.verdict != want {
				return l, fmt.Errorf("serve: pre-warm pass %d, pool program %d: status %d verdict %q err %v",
					pass, i, s.status, s.verdict, s.err)
			}
			if pass == 0 {
				l.poolFP = append(l.poolFP, s.fingerprint)
			}
		}
	}
	return l, nil
}

func (l *serveLeg) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if l.front != nil {
		l.front.shutdown(ctx)
	}
	if l.rt != nil {
		l.rt.Close()
	}
	for _, b := range l.backends {
		b.shutdown(ctx)
	}
	for _, s := range l.servers {
		s.Shutdown(ctx)
	}
	if l.client != nil {
		l.client.CloseIdleConnections()
	}
}

// programBody returns the wire encoding of the fuzzer program for seed.
func programBody(seed uint64) ([]byte, error) {
	return wire.EncodeProgram(fuzzer.Generate(seed))
}

// request is one planned POST: a pool program (a hit) or a never-repeated
// program (a miss).
type request struct {
	body    []byte
	hit     bool
	poolIdx int
}

// plan builds the next round: a fixed count of requests, hitPct of them
// drawn from the pool, in a seeded order. Misses use seeds no other request
// of the process uses: the rig's index keeps the rigs of one run apart, and
// a rig would need 2^24 requests before its seeds reached the next rig's.
func (l *serveLeg) plan() ([]request, error) {
	round := l.planned
	l.planned++
	n := l.cfg.roundReqs
	hits := n * hitPct / 100
	rng := rand.New(rand.NewSource(int64(l.seed)*1_000_003 + int64(round)))
	reqs := make([]request, n)
	for i := range reqs {
		if i < hits {
			j := rng.Intn(len(l.pool))
			reqs[i] = request{body: l.pool[j], hit: true, poolIdx: j}
			continue
		}
		body, err := programBody(l.seed<<32 + 1<<31 + uint64(l.rig)<<24 + uint64(round*n+i))
		if err != nil {
			return nil, err
		}
		reqs[i] = request{body: body}
	}
	rng.Shuffle(n, func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs, nil
}

// sample is the client's view of one request.
type sample struct {
	d           time.Duration
	status      int
	verdict     string // X-Pardetect-Cache
	outcome     string // X-Pardetect-Outcome
	fingerprint string
	err         error
}

func (s sample) failed() bool { return s.err != nil || s.status != http.StatusOK }

// post sends one program through the router; idx >= 0 tags it for the
// handler timers.
func (l *serveLeg) post(body []byte, idx int) sample {
	req, err := http.NewRequest(http.MethodPost, l.front.url+"/analyze?engine="+engine, bytes.NewReader(body))
	if err != nil {
		return sample{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	if idx >= 0 {
		req.Header.Set(reqHeader, strconv.Itoa(idx))
	}
	t0 := time.Now()
	resp, err := l.client.Do(req)
	if err != nil {
		return sample{err: err}
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return sample{
		d:           time.Since(t0),
		status:      resp.StatusCode,
		verdict:     resp.Header.Get("X-Pardetect-Cache"),
		outcome:     resp.Header.Get("X-Pardetect-Outcome"),
		fingerprint: resp.Header.Get("X-Pardetect-Fingerprint"),
		err:         err,
	}
}

// round sends reqs over the closed-loop connections and returns
// the samples in request order with the round's wall time.
func (l *serveLeg) round(reqs []request) ([]sample, time.Duration) {
	out := make([]sample, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < l.cfg.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				out[i] = l.post(reqs[i].body, i)
			}
		}()
	}
	wg.Wait()
	return out, time.Since(t0)
}

// checkRound counts the round's operations and checks each answer: the
// verdict the plan expects, and for hits the pool program's fingerprint.
func (l *serveLeg) checkRound(reqs []request, out []sample, t *tally) {
	for i, s := range out {
		t.op(s.failed())
		if s.failed() {
			continue
		}
		want := "miss"
		if reqs[i].hit {
			want = "hit"
		}
		t.check(s.verdict == want, "serve: request %d answered %q, want %q", i, s.verdict, want)
		if reqs[i].hit {
			t.check(s.fingerprint == l.poolFP[reqs[i].poolIdx], "serve: hit %d fingerprint %s, pool says %s",
				i, s.fingerprint, l.poolFP[reqs[i].poolIdx])
		}
	}
}

// checkReference compares a seeded sample of pool programs and of one
// round's misses with the tree engine's results.
func (l *serveLeg) checkReference(reqs []request, out []sample, t *tally) error {
	rng := rand.New(rand.NewSource(int64(l.seed)))
	for _, j := range rng.Perm(len(l.pool))[:min(l.cfg.refSample, len(l.pool))] {
		fp, _, err := referenceResult(l.pool[j])
		if err != nil {
			return fmt.Errorf("serve: reference analysis: %w", err)
		}
		t.check(fp == l.poolFP[j], "serve: pool program %d fingerprint %s, tree engine says %s", j, l.poolFP[j], fp)
	}
	checked := 0
	for _, i := range rng.Perm(len(reqs)) {
		if checked == l.cfg.refSample {
			break
		}
		if reqs[i].hit || out[i].failed() {
			continue
		}
		fp, _, err := referenceResult(reqs[i].body)
		if err != nil {
			return fmt.Errorf("serve: reference analysis: %w", err)
		}
		t.check(fp == out[i].fingerprint, "serve: miss %d fingerprint %s, tree engine says %s", i, out[i].fingerprint, fp)
		checked++
	}
	return nil
}

// split returns the latencies of the successful hits and misses, in ms.
func split(reqs []request, out []sample) (hits, misses []float64) {
	for i, s := range out {
		if s.failed() {
			continue
		}
		if reqs[i].hit {
			hits = append(hits, ms(s.d))
		} else {
			misses = append(misses, ms(s.d))
		}
	}
	return hits, misses
}

// rep plans and runs one timed round and checks it; the first round's
// sample is also checked against the tree engine.
func (l *serveLeg) rep(t *tally) error {
	reqs, err := l.plan()
	if err != nil {
		return err
	}
	runtime.GC()
	out, d := l.round(reqs)
	l.checkRound(reqs, out, t)
	h, mi := split(reqs, out)
	l.timed = append(l.timed, roundSample{hits: h, misses: mi, wall: d})
	if len(l.timed) == 1 {
		return l.checkReference(reqs, out, t)
	}
	return nil
}

// reportServe computes each latency percentile per round and reports its
// median over the rounds of all rigs; req_per_s follows the median of the
// rounds' wall times, each round being the same request count.
func reportServe(rigs []*serveLeg, m metrics) error {
	var timed []roundSample
	for _, l := range rigs {
		timed = append(timed, l.timed...)
	}
	r0 := timed[0]
	fmt.Fprintf(os.Stderr, "perfbench: serve: %d rounds on %d rigs of %d hits (up to p%d reportable) and %d misses (up to p%d)\n",
		len(timed), len(rigs), len(r0.hits), tailPercentile(len(r0.hits)), len(r0.misses), tailPercentile(len(r0.misses)))
	for _, p := range []struct {
		name string
		miss bool
		pct  float64
	}{
		{"hit_p50_ms", false, 50}, {"hit_p90_ms", false, 90},
		{"miss_p50_ms", true, 50}, {"miss_p90_ms", true, 90},
	} {
		var perRound []float64
		for _, r := range timed {
			xs := r.hits
			if p.miss {
				xs = r.misses
			}
			v, err := percentile(xs, p.pct)
			if err != nil {
				return fmt.Errorf("serve: %s: %w", p.name, err)
			}
			perRound = append(perRound, v)
		}
		m.set(p.name, median(perRound), "ms")
	}
	walls := make([]float64, len(timed))
	for i, r := range timed {
		walls[i] = r.wall.Seconds()
	}
	m.set("req_per_s", float64(rigs[0].cfg.roundReqs)/median(walls), "1/s")
	return nil
}

// plain runs one round without handler timers, checks it and returns its
// wall time.
func (l *serveLeg) plain(t *tally) (time.Duration, error) {
	reqs, err := l.plan()
	if err != nil {
		return 0, err
	}
	runtime.GC()
	out, d := l.round(reqs)
	l.checkRound(reqs, out, t)
	return d, nil
}

// traced makes one plain round, then one round with the handler timers on,
// and reports the serving layers. It returns both rounds' wall times.
func (l *serveLeg) traced(m metrics, t *tally) (plain, traced time.Duration, err error) {
	if plain, err = l.plain(t); err != nil {
		return 0, 0, err
	}
	reqs, err := l.plan()
	if err != nil {
		return 0, 0, err
	}
	storeHits0 := l.storeHits()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	l.front.timer.record(true)
	for _, b := range l.backends {
		b.timer.record(true)
	}
	out, traced := l.round(reqs)
	// A client can read a whole response before the handler that wrote it
	// returns, so wait (briefly) for every handler's time to arrive.
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		n := 0
		for _, b := range l.backends {
			n += b.timer.recorded()
		}
		if n >= len(reqs) && l.front.timer.recorded() >= len(reqs) {
			break
		}
	}
	routerNs := l.front.timer.record(false)
	backendNs := map[int]time.Duration{}
	for _, b := range l.backends {
		for i, d := range b.timer.record(false) {
			backendNs[i] = d
		}
	}
	runtime.ReadMemStats(&after)
	l.checkRound(reqs, out, t)
	if err := l.checkReference(reqs, out, t); err != nil {
		return 0, 0, err
	}

	var routerHit, backendHit, transportHit, backendMiss []float64
	var hits, misses, joins, rejected int
	for i, s := range out {
		switch {
		case s.status == http.StatusTooManyRequests || s.outcome == "reject":
			rejected++
		case s.verdict == "hit":
			hits++
		case s.verdict == "miss":
			misses++
		case s.verdict == "join":
			joins++
		}
		if s.failed() {
			continue
		}
		rd, rok := routerNs[i]
		bd, bok := backendNs[i]
		if !rok || !bok {
			return 0, 0, fmt.Errorf("serve: request %d missing from the handler timers", i)
		}
		if reqs[i].hit {
			routerHit = append(routerHit, ms(rd))
			backendHit = append(backendHit, ms(bd))
			transportHit = append(transportHit, ms(s.d-rd))
		} else {
			backendMiss = append(backendMiss, ms(bd))
		}
	}
	for _, p := range []struct {
		name string
		xs   []float64
	}{
		{"router.handler_p50_ms", routerHit},
		{"server.hit_handler_p50_ms", backendHit},
		{"client.transport_p50_ms", transportHit},
		{"server.miss_handler_p50_ms", backendMiss},
	} {
		v, err := percentile(p.xs, 50)
		if err != nil {
			return 0, 0, fmt.Errorf("serve: %s: %w", p.name, err)
		}
		m.set(p.name, v, "ms")
	}
	m.set("router.hop_ms", mean(routerHit)-mean(backendHit), "ms")
	m.set("server.hits", float64(hits), "count")
	m.set("server.misses", float64(misses), "count")
	m.set("server.joins", float64(joins), "count")
	m.set("server.rejected", float64(rejected), "count")
	m.set("server.store_hits", float64(l.storeHits()-storeHits0), "count")
	m.set("runtime.alloc_kb_per_req", float64(after.TotalAlloc-before.TotalAlloc)/1024/float64(len(reqs)), "KB")

	retries, _, err := l.scrape(l.front.url, "router.retries")
	if err != nil {
		return 0, 0, err
	}
	m.set("router.retries", float64(retries), "count")
	var scrapeBytes int
	for _, b := range l.backends {
		_, n, err := l.scrape(b.url, "")
		if err != nil {
			return 0, 0, err
		}
		scrapeBytes += n
	}
	m.set("obs.scrape_bytes", float64(scrapeBytes)/float64(len(l.backends)), "bytes")
	return plain, traced, nil
}

// storeHits sums the backends' persistent-store hit counters.
func (l *serveLeg) storeHits() int64 {
	var n int64
	for _, s := range l.servers {
		n += s.Observer().Snapshot().Counters["server.store.hits"]
	}
	return n
}

// scrape fetches base's /metrics and returns the named flat counter (0 when
// absent) and the body size in bytes.
func (l *serveLeg) scrape(base, counter string) (value int64, size int, err error) {
	resp, err := l.client.Get(base + "/metrics")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, 0, errors.New("serve: " + base + "/metrics answered " + resp.Status)
	}
	prefix := `pardetect_obs_counter{name="` + counter + `"} `
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), prefix); ok && counter != "" {
			value, err = strconv.ParseInt(rest, 10, 64)
		}
	}
	return value, len(body), err
}
