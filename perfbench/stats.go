package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// a p99 read from fewer than 1000 samples rests on fewer than ten
// observations and is refused.
const minBeyond = 10

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value of xs (the mean of the two middle values
// for an even count). It returns NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs. It
// refuses, with an error, when fewer than minBeyond samples lie above
// the selected rank, so a reported tail percentile always rests on at
// least minBeyond observations beyond it.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("percentile of no samples")
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if beyond := n - 1 - idx; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", q*100, n, beyond, minBeyond)
	}
	return sortedCopy(xs)[idx], nil
}

// p99Window is the smallest window of samples a p99 is read from: the
// least that leaves minBeyond samples beyond it.
const p99Window = 1000

// windowedP99 splits samples (in the order they were taken) into
// consecutive windows of at least p99Window and returns the median of
// the windows' p99s, so a host stall moves one window's tail rather
// than the run's. With fewer than two windows' worth it is the p99 of
// all samples, which percentile refuses below p99Window.
func windowedP99(xs []float64) (float64, error) {
	w := len(xs) / p99Window
	if w < 2 {
		return percentile(xs, 0.99)
	}
	var p99s []float64
	for i := 0; i < w; i++ {
		lo, hi := i*len(xs)/w, (i+1)*len(xs)/w
		p, err := percentile(xs[lo:hi], 0.99)
		if err != nil {
			return 0, err
		}
		p99s = append(p99s, p)
	}
	return median(p99s), nil
}

// windowMedianRate is the median over consecutive windows of k
// completions of each window's completion rate (per second): window j
// ends at the (j+1)k-th completion and starts at the previous window's
// end (the first at start). One stalled window shifts the median by at
// most one rank, where a total-count-over-wall-time rate absorbs the
// whole stall. done must be sorted; a trailing partial window is
// dropped.
func windowMedianRate(start time.Time, done []time.Time, k int) float64 {
	if k < 1 {
		k = 1
	}
	var rates []float64
	prev := start
	for end := k - 1; end < len(done); end += k {
		if d := done[end].Sub(prev).Seconds(); d > 0 {
			rates = append(rates, float64(k)/d)
		}
		prev = done[end]
	}
	return median(rates)
}

// windowSize picks the completions per throughput window: about 25
// windows over the phase, at least 5 completions each.
func windowSize(n int) int {
	k := n / 25
	if k < 5 {
		k = 5
	}
	return k
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// replayFIFO replays measured service times through one FIFO server
// fed at a fixed rate (the Lindley recursion: each op starts when it
// is due or when the previous one finishes, whichever is later) and
// returns each op's latency from its due time in ms.
func replayFIFO(service []time.Duration, rate float64) []float64 {
	out := make([]float64, len(service))
	var free float64 // seconds since the first due time
	for i, s := range service {
		due := float64(i) / rate
		start := math.Max(due, free)
		free = start + s.Seconds()
		out[i] = (free - due) * 1000
	}
	return out
}

// maxRateFIFO is the highest fixed arrival rate at which one FIFO
// server, replaying the measured service times in order, keeps the p99
// latency from due time within limitMS. Waits in the replay grow
// monotonically with the rate, so bisection finds the boundary. If even
// lo misses the limit (the ops' own p99 exceeds it), it returns lo
// scaled by limit/p99.
func maxRateFIFO(service []time.Duration, limitMS, lo, hi float64) float64 {
	p99At := func(r float64) float64 {
		p99, err := percentile(replayFIFO(service, r), 0.99)
		if err != nil {
			return math.Inf(1)
		}
		return p99
	}
	pass := func(r float64) bool { return p99At(r) <= limitMS }
	if p := p99At(lo); p > limitMS {
		return lo * limitMS / p
	}
	for pass(hi) {
		lo, hi = hi, hi*2
	}
	for hi-lo > lo*1e-5 {
		mid := (lo + hi) / 2
		if pass(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// windowedMaxRateFIFO applies maxRateFIFO to consecutive windows of at
// least p99Window ops (each replay starting with an empty queue) and
// returns the median, as windowedP99 does for the p99 itself. thr, the
// measured throughput, seeds the bisection's bracket.
func windowedMaxRateFIFO(service []time.Duration, limitMS, thr float64) float64 {
	w := max(1, len(service)/p99Window)
	var rates []float64
	for i := 0; i < w; i++ {
		lo, hi := i*len(service)/w, (i+1)*len(service)/w
		rates = append(rates, maxRateFIFO(service[lo:hi], limitMS, thr/100, thr))
	}
	return median(rates)
}
