// Package server implements the HTTP serving layer of ctgaussd: batched
// Gaussian sampling and Falcon sign/verify endpoints over the repo's
// concurrent pools, plus health and metrics surfaces.
//
// The package is the glue between stateless HTTP requests and the
// stateful batch-oriented backends:
//
//   - /v1/samples and /v1/arbitrary share one keyed draw route
//     (Server.draw): a precompiled σ takes from its ctgauss.Pool; any
//     other σ is served by the convolution layer (ctgauss.Arbitrary) or,
//     once the tier controller has promoted the key, by a compiled pool.
//     Pools run on the unified refill runtime (internal/engine):
//     background producers evaluate circuits ahead of demand and
//     Pool.Take serves each request an exact slice of the refill stream,
//     so concurrent small requests share refills by construction with no
//     cursor or leftover buffer in the server.
//   - /v1/falcon/sign and /v1/falcon/verify run on a sharded
//     falcon.SignerPool over the daemon's key.
//   - /healthz reports liveness and configuration; /metrics exports
//     Prometheus-text counters (requests, samples, batches, refills,
//     prefetch hits/misses, latency quantiles) that reconcile with
//     cmd/ctgaussload reports.
//
// Every endpoint sits behind a drain gate (Server.Drain stops intake and
// waits for in-flight requests — graceful shutdown) and a per-endpoint
// bounded admission queue (overload returns 429 instead of queueing
// unboundedly).  Server.Close drains and then stops the engines'
// producer goroutines — the SIGTERM path in cmd/ctgaussd.
//
// cmd/ctgaussd wires this package to a net/http server and POSIX
// signals; cmd/ctgaussload drives it and reports throughput (RunLoad).
package server
