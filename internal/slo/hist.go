// Package slo is the open-loop SLO workload harness: it schedules
// invocation arrivals from a Poisson (or bursty) process against many
// object groups and a large population of lightweight simulated clients,
// drives them through a goroutine pool (never one goroutine per client),
// and records full latency distributions with coordinated-omission
// correction — every sample is measured from the arrival's *intended*
// start time, so a stalled server is charged for the requests that should
// have been issued while it stalled, not just the one that observed the
// stall.
//
// It composes with internal/chaos schedules ("SLO under chaos"): fault
// episodes are applied to the live domain while the open-loop load runs,
// and blackout windows are reported as percentiles over (episode, group)
// pairs rather than as means. cmd/ftbench's "slo" experiment mode drives
// it, prints the percentiles and checks them against the scale tier's
// bounds (internal/bench/slo.go).
package slo

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram bucket layout: log-linear, HdrHistogram style. Values (ns) are
// bucketed by power-of-two tier with histSubCount linear sub-buckets per
// tier, so the relative quantization error is bounded by 1/histSubCount
// (~3.1%) across the full int64 range. The bucket array is a fixed-size
// value member: recording is pure index math plus atomic adds — no
// allocation, no locks — so one histogram can absorb the whole worker
// pool's completions on the hot path.
const (
	histSubBits  = 5
	histSubCount = 1 << histSubBits
	histTiers    = 64 - histSubBits
	histBuckets  = histTiers * histSubCount
)

// Hist is a fixed-bucket latency histogram in nanoseconds. All methods are
// safe for concurrent use; Record never allocates.
type Hist struct {
	counts [histBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Int64
	max    atomic.Int64
	min    atomic.Int64
}

// NewHist returns an empty histogram.
func NewHist() *Hist {
	h := &Hist{}
	h.min.Store(math.MaxInt64)
	return h
}

// bucketIdx maps a non-negative value to its bucket.
func bucketIdx(v int64) int {
	u := uint64(v)
	if u < histSubCount {
		return int(u) // tier 0: exact
	}
	msb := 63 - bits.LeadingZeros64(u)
	tier := msb - histSubBits + 1
	sub := int((u >> uint(msb-histSubBits)) & (histSubCount - 1))
	return tier*histSubCount + sub
}

// bucketHigh is the highest value mapping to the bucket — the conservative
// representative reported for percentiles (an SLO gate should round up).
func bucketHigh(idx int) int64 {
	tier := idx / histSubCount
	sub := idx % histSubCount
	if tier == 0 {
		return int64(sub)
	}
	shift := uint(tier - 1)
	return int64(histSubCount+sub+1)<<shift - 1
}

// Record adds one sample. Negative values clamp to zero.
func (h *Hist) Record(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	h.counts[bucketIdx(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			break
		}
	}
	for {
		m := h.min.Load()
		if v >= m || h.min.CompareAndSwap(m, v) {
			break
		}
	}
}

// Count returns the number of recorded samples.
func (h *Hist) Count() uint64 { return h.count.Load() }

// Mean returns the mean of recorded samples (exact, from the running sum).
func (h *Hist) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / int64(n))
}

// Max returns the largest recorded sample (exact).
func (h *Hist) Max() time.Duration {
	if h.count.Load() == 0 {
		return 0
	}
	return time.Duration(h.max.Load())
}

// Min returns the smallest recorded sample (exact).
func (h *Hist) Min() time.Duration {
	if h.count.Load() == 0 {
		return 0
	}
	return time.Duration(h.min.Load())
}

// Quantile returns the value at quantile q in [0,1]: the upper bound of the
// bucket containing the ceil(q·n)-th sample, clamped to the exact observed
// maximum. Quantile(0) is the min, Quantile(1) the max.
func (h *Hist) Quantile(q float64) time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min()
	}
	target := uint64(math.Ceil(q * float64(n)))
	if target > n {
		target = n
	}
	var cum uint64
	for i := 0; i < histBuckets; i++ {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		cum += c
		if cum >= target {
			v := bucketHigh(i)
			if m := h.max.Load(); v > m {
				v = m // the top bucket's bound can exceed the true max
			}
			if m := h.min.Load(); v < m {
				v = m
			}
			return time.Duration(v)
		}
	}
	return h.Max()
}

// Merge adds o's samples into h. Merging is commutative and associative up
// to bucket counts, sums, and extrema, so shards can be combined in any
// order.
func (h *Hist) Merge(o *Hist) {
	if o == nil {
		return
	}
	for i := 0; i < histBuckets; i++ {
		if c := o.counts[i].Load(); c != 0 {
			h.counts[i].Add(c)
		}
	}
	n := o.count.Load()
	if n == 0 {
		return
	}
	h.count.Add(n)
	h.sum.Add(o.sum.Load())
	for {
		m, v := h.max.Load(), o.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			break
		}
	}
	for {
		m, v := h.min.Load(), o.min.Load()
		if v >= m || h.min.CompareAndSwap(m, v) {
			break
		}
	}
}

// Snapshot bundles the headline percentiles of one histogram.
type Snapshot struct {
	Count          uint64
	Mean           time.Duration
	P50, P99, P999 time.Duration
	Max            time.Duration
}

// Snap computes the headline percentiles.
func (h *Hist) Snap() Snapshot {
	return Snapshot{
		Count: h.Count(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P99:   h.Quantile(0.99),
		P999:  h.Quantile(0.999),
		Max:   h.Max(),
	}
}
