package main

import "math/bits"

// hist is a log-linear histogram of nanosecond durations: exact below 128,
// then 64 buckets per power of two, so a bucket is at most 1/64 ≈ 1.6 % wide
// and a quantile is within that of the sample it stands for.
type hist struct {
	counts [64 * 40]uint64
	n      uint64
}

func bucketOf(v uint64) int {
	if v < 128 {
		return int(v)
	}
	e := bits.Len64(v) - 7
	return e*64 + int(v>>uint(e))
}

// bucketBounds returns the lowest value of bucket i and the bucket's width.
func bucketBounds(i int) (low, width float64) {
	if i < 128 {
		return float64(i), 1
	}
	e := uint(i/64 - 1)
	return float64(uint64(i-int(e)*64) << e), float64(uint64(1) << e)
}

func (h *hist) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	i := bucketOf(uint64(ns))
	if i >= len(h.counts) {
		i = len(h.counts) - 1
	}
	h.counts[i]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds (0 when empty), placing
// the sample inside its bucket by its rank among the bucket's samples.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := uint64(q * float64(h.n))
	if target >= h.n {
		target = h.n - 1
	}
	var seen uint64
	for i, c := range h.counts {
		if seen+c > target {
			low, width := bucketBounds(i)
			return low + width*(float64(target-seen)+0.5)/float64(c)
		}
		seen += c
	}
	return 0 // unreachable: the counts add up to n
}
