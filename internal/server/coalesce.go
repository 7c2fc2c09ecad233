package server

import (
	"context"

	"ctgauss"
)

// coalescer adapts a batch-oriented ctgauss.Pool to per-request sample
// counts.  Since the pool moved onto the unified refill runtime
// (internal/engine), the coalescer no longer keeps a stream cursor or
// leftover buffer of its own: Pool.Take serves any length exactly from
// the engine rings, handing out consecutive zero-copy slices of
// completed refills, so concurrent small requests share refills by
// construction — 32 concurrent 16-sample requests consume 512
// consecutive samples of one refill, not 32 separate batches.  Absent concurrent requests the served stream is exactly the
// Pool.NextBatch sequence a direct caller would draw, which the
// bit-identity integration test pins.
//
// What remains here is the per-σ binding the /metrics scrape reads:
// the σ label, the circuit stats fixed at startup, and the pool whose
// unified engine ledger (batches, refills, prefetch hits) sigmaStats
// snapshots.
type coalescer struct {
	sigma string
	pool  *ctgauss.Pool
	stats ctgauss.Stats
}

func newCoalescer(sigma string, pool *ctgauss.Pool) *coalescer {
	return &coalescer{sigma: sigma, pool: pool, stats: pool.Stats()}
}

// draw fills out with the next len(out) samples of the pool's streams.
// ctx cancels a draw blocked on a slow refill; pool-level failures
// (ErrPoolDegraded, ErrClosed) propagate for the handler to map to a
// response status.
func (c *coalescer) draw(ctx context.Context, out []int) error {
	return c.pool.Take(ctx, out)
}

func (c *coalescer) sigmaStats() sigmaStats {
	es := c.pool.EngineStats()
	return sigmaStats{
		sigma: c.sigma,
		// One "batch" is the pool's native 64-sample granularity; the
		// engine ledger counts samples exactly, so the derived batch
		// counter advances once per 64 consumed — and refills started is
		// its ceiling over batches-per-refill, as the coalescing test
		// pins.
		batches:          es.SamplesServed / 64,
		refills:          es.RefillsStarted,
		samples:          es.SamplesServed,
		batchesPerRefill: c.stats.BatchesPerRefill,
		shards:           es.Shards,
		prefetch:         es.Prefetch,
		refillsProduced:  es.RefillsProduced,
		prefetchHits:     es.PrefetchHits,
		prefetchMisses:   es.PrefetchMisses,
		producerRestarts: es.ProducerRestarts,
		refillsDiscarded: es.RefillsDiscarded,
		shardsPoisoned:   es.ShardsPoisoned,
		rings:            c.pool.RingStats(),
	}
}
