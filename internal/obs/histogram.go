package obs

import (
	"math/bits"
	"sync/atomic"
)

// NumBuckets is the number of log2 histogram buckets: bucket i counts
// observations with ceil(log2(ns)) == i, saturating at the top, so the
// range spans 1ns through ~68s.  The server's endpoint-latency and
// per-stage histograms are both this type, so their distributions
// compare directly.
const NumBuckets = 37

// Histogram is a lock-free log2 latency histogram.  The zero value is
// ready to use; Observe is wait-free (three atomic adds).
type Histogram struct {
	buckets [NumBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
}

// Observe records one duration in nanoseconds (non-positive values
// count in the first bucket with zero sum contribution).
func (h *Histogram) Observe(ns int64) {
	i := 0
	if ns > 1 {
		i = bits.Len64(uint64(ns) - 1)
	}
	if i >= NumBuckets {
		i = NumBuckets - 1
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	if ns > 0 {
		h.sum.Add(uint64(ns))
	}
}

// HistogramSnapshot is a point-in-time copy of a Histogram.
type HistogramSnapshot struct {
	Buckets [NumBuckets]uint64
	Count   uint64
	SumNs   uint64
}

// Snapshot copies the histogram's counters.  Buckets are read without
// a global lock, so a snapshot taken during concurrent observes may be
// torn by at most the in-flight observations — fine for scraping.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.Count = h.count.Load()
	s.SumNs = h.sum.Load()
	return s
}

// BucketUpperNs returns bucket i's inclusive upper bound in
// nanoseconds (2^i).
func BucketUpperNs(i int) uint64 { return 1 << uint(i) }
