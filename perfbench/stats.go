package main

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// tally counts attempted and failed operations, with the cause of each
// failure and the first error seen per cause. Any failure, a reference
// mismatch included, clears "correct".
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	causes    map[string]int
	examples  map[string]string
}

func (t *tally) ok() {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
}

// fail counts a failed operation under cause.
func (t *tally) fail(cause string, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	t.failed++
	if t.causes == nil {
		t.causes = map[string]int{}
		t.examples = map[string]string{}
	}
	if t.causes[cause] == 0 {
		t.examples[cause] = err.Error()
	}
	t.causes[cause]++
}

// snapshot returns the counts and, per cause, its count and first error.
func (t *tally) snapshot() (attempted, failed int, causes map[string]string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	causes = map[string]string{}
	for k, v := range t.causes {
		causes[k] = fmt.Sprintf("%d (first: %s)", v, t.examples[k])
	}
	return t.attempted, t.failed, causes
}

// samples is a goroutine-safe latency recorder.
type samples struct {
	mu sync.Mutex
	v  []float64
}

func (s *samples) add(d time.Duration) {
	s.mu.Lock()
	s.v = append(s.v, float64(d.Nanoseconds())/1e6)
	s.mu.Unlock()
}

func (s *samples) values() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.v...)
}

// quantile returns the nearest-rank q-quantile of v (0 for an empty v).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(v []float64) float64 { return quantile(v, 0.5) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// splitmix is a tiny seedable generator for the workload schedules.
type splitmix struct{ s uint64 }

func (r *splitmix) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *splitmix) intn(n int) int { return int(r.next() % uint64(n)) }

// float returns a uniform value in (0, 1].
func (r *splitmix) float() float64 { return (float64(r.next()>>11) + 1) / (1 << 53) }

// timedMedian runs set-up n times and returns the median duration in
// seconds. step learns whether it is the last attempt, whose state the
// caller keeps; earlier attempts release theirs.
func timedMedian(n int, step func(last bool) error) (float64, error) {
	var d []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := step(i == n-1); err != nil {
			return 0, err
		}
		d = append(d, time.Since(t0).Seconds())
	}
	return median(d), nil
}

// forEach calls fn(i) for every i in [0, n) from workers goroutines and
// returns when all calls have.
func forEach(n, workers int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// closedLoop calls fn(base), fn(base+1), ... from workers goroutines, each
// making its next call when its previous one returns, until d has passed.
// fn reports whether its operation succeeded. closedLoop returns
// successful calls per second.
func closedLoop(workers int, base int64, d time.Duration, fn func(k int64) bool) float64 {
	var next, done, last atomic.Int64
	next.Store(base)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				if fn(next.Add(1) - 1) {
					done.Add(1)
				}
				last.Store(int64(time.Since(start)))
			}
		}()
	}
	wg.Wait()
	return float64(done.Load()) / time.Duration(last.Load()).Seconds()
}
