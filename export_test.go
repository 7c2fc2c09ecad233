package ctgauss

// Test-only accessors: per-shard stream access lets tests pin shard
// independence and cross-engine bit-identity without depending on the
// picker's (deliberately unspecified) cross-shard interleave.

// TakeFromShard copies the next len(dst) samples of one shard's stream.
func (p *Pool) TakeFromShard(shard int, dst []int) error { return p.eng.TakeFrom(nil, shard, dst) }

// ShardSeed exposes the per-shard seed derivation, so tests can rebuild
// one shard's stream outside the pool.
func ShardSeed(seed []byte, shard int) []byte { return shardSeed(seed, shard) }
