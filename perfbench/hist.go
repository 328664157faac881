package main

import "math"

// hist is a log-linear latency histogram with fixed memory: the
// closed loop records millions of latencies, and a growing sample slice
// would move the server's GC pacing as the run goes on. Buckets are
// 0.5 % wide from 0.1 µs; quantiles interpolate within the bucket by
// rank, so they are as fine as the samples allow.
type hist struct {
	counts []uint32
	n      int
}

const (
	histMin   = 0.1 // µs
	histGrow  = 1.005
	histCount = 4096 // up to ~80 s
)

var histLogGrow = math.Log(histGrow)

func (h *hist) add(us float64) {
	if h.counts == nil {
		h.counts = make([]uint32, histCount)
	}
	i := 0
	if us > histMin {
		i = int(math.Log(us/histMin) / histLogGrow)
	}
	if i >= histCount {
		i = histCount - 1
	}
	h.counts[i]++
	h.n++
}

// merge adds o's counts into h.
func (h *hist) merge(o *hist) {
	if o.n == 0 {
		return
	}
	if h.counts == nil {
		h.counts = make([]uint32, histCount)
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile (0..1), 0 when empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	seen := 0.0
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) > rank {
			lo := histMin * math.Pow(histGrow, float64(i))
			frac := (rank - seen + 0.5) / float64(c)
			return lo * math.Pow(histGrow, frac)
		}
		seen += float64(c)
	}
	return histMin * math.Pow(histGrow, histCount)
}
