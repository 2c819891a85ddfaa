// Package stats provides the small set of statistics helpers used by the
// traxtents experiments: means, standard deviations, percentiles, and
// a streaming P² quantile estimator (Quantile) for online p99/p99.99
// accounting without stored samples.
//
// Tails groups the p50/p99/p99.99 estimators an accounting owner
// reports, and Feed moves their updates off the request path: Add
// queues a sample, full batches of FeedBatch samples are applied in
// order by a helper goroutine spawned for that batch alone, and Sync
// joins it and applies the rest. Every estimator sees the same sample
// sequence as inline Quantile.Add calls, so every estimate is
// bit-identical; no goroutine outlives its batch.
package stats
