package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// rssEvery is the resident-set sampling period. The Go runtime returns
// memory to the OS lazily, so resident size moves slowly next to it.
const rssEvery = 10 * time.Millisecond

// rssSampler polls the process's resident set size and keeps the highest
// value seen since the last take. The timed run takes one peak per cycle and
// reports their median: the process's single highest moment (VmHWM) lands
// wherever one collector cycle happened to run late, and moved by a third
// from run to run.
type rssSampler struct {
	mu   sync.Mutex
	peak int64 // bytes
	err  error
	stop chan struct{}
	done chan struct{}
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			s.sample()
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	n, err := residentBytes()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		if s.err == nil {
			s.err = err
		}
		return
	}
	s.peak = max(s.peak, n)
}

// take returns the peak since the previous take in MB and starts a new one.
func (s *rssSampler) take() (float64, error) {
	s.sample()
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.peak
	s.peak = 0
	return float64(p) / (1 << 20), s.err
}

// close stops the sampling goroutine and waits for it.
func (s *rssSampler) close() {
	close(s.stop)
	<-s.done
}

// residentBytes reads the resident set size from /proc/self/statm.
func residentBytes() (int64, error) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0, fmt.Errorf("malformed /proc/self/statm %q", data)
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("parsing /proc/self/statm: %w", err)
	}
	return pages * int64(os.Getpagesize()), nil
}
