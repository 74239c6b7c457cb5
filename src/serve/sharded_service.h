#ifndef ADAMINE_SERVE_SHARDED_SERVICE_H_
#define ADAMINE_SERVE_SHARDED_SERVICE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serve/retrieval_service.h"
#include "serve/shard_client.h"
#include "tensor/tensor.h"
#include "util/status.h"

namespace adamine::serve {

struct ShardedServeConfig {
  /// Corpus partitions; each shard serves one contiguous row range.
  int64_t num_shards = 1;
  /// Replicas per shard. Replicas serve identical rows; the shard client
  /// fails over between them.
  int64_t num_replicas = 1;
  /// Config applied to every replica service. Must use an exact backend
  /// (scalar or exhaustive — the merge re-ranks per-hit scores globally)
  /// and is served cache-less per replica — the sharded layer has no cache
  /// of its own.
  ServeConfig shard;
  /// Per-attempt timeout, hedging, retry and breaker knobs, applied to every
  /// shard client (see ShardClientConfig for the semantics of each).
  double shard_timeout_ms = 0.0;
  double hedge_ms = 0.0;
  RetryPolicy retry;
  CircuitBreakerConfig breaker;
  /// When true, a query whose coverage would be < 1 fails with the first
  /// failing shard's status instead of returning a partial result.
  bool require_full_coverage = false;

  Status Validate() const;
};

/// A batched answer from the sharded service. With every shard healthy,
/// `results` is bit-identical to the unsharded exhaustive service's answer,
/// `partial` is false and `coverage` is 1. When shards are exhausted (all
/// replicas down or timed out) and require_full_coverage is off, `results`
/// holds the exact top-k over the rows that did respond, `partial` is true
/// and `coverage` is the fraction of corpus rows that contributed.
struct ShardedQueryResult {
  std::vector<std::vector<ScoredHit>> results;  // Global ids, best first.
  bool partial = false;
  double coverage = 1.0;
};

/// Aggregated fan-out/fan-in counters since construction / ResetStats.
struct ShardedServeStats {
  int64_t requests = 0;        // QueryBatch calls.
  int64_t queries = 0;         // Query rows served.
  int64_t full_results = 0;    // Requests answered at coverage 1.
  int64_t partial_results = 0; // Requests answered at coverage < 1.
  int64_t failed = 0;          // Requests that returned an error.
  // Sums over the per-shard client stats (also available per shard below).
  int64_t retries = 0;
  int64_t hedges_fired = 0;
  int64_t hedges_won = 0;
  int64_t timeouts = 0;
  int64_t exhausted = 0;
  int64_t breaker_opens = 0;
  CoverageHistogram coverage;
  StageStats fanout;  // Wall time of the scatter+gather across shards.
  StageStats merge;   // Wall time of the global top-k merge.
  std::vector<ShardClientStats> shards;

  /// Multi-line human-readable snapshot for the CLI / bench output.
  std::string ToString() const;
};

/// Scale-out serving: partitions an embedding corpus across num_shards
/// RetrievalService shards (x num_replicas replicas each), fans every query
/// batch out to all shards in parallel, and merges the per-shard top-k
/// lists into a global top-k.
///
/// Determinism (see DESIGN.md, "Sharded serving and failover"): shard s
/// serves the contiguous corpus rows [s*chunk, min((s+1)*chunk, N)), so a
/// row's score against a query is computed by exactly the same dot-product
/// chain as in the unsharded service; the merge orders by (score desc,
/// global id asc) — the unsharded comparator — making the fan-in
/// bit-identical to the unsharded exhaustive answer whenever every shard
/// responds, at any shard count and any kernel thread count.
///
/// Fault tolerance: each shard is fronted by a ShardClient (per-replica
/// circuit breakers, bounded retries with deterministic backoff, optional
/// hedging). A shard that stays down degrades the answer to a partial
/// result with an honest `coverage` instead of failing the request, unless
/// require_full_coverage is set.
///
/// Thread safety: Query / QueryBatch / Snapshot / ResetStats may be called
/// concurrently.
class ShardedRetrievalService {
 public:
  /// Partitions the rows of `items` [N, D] and builds num_shards x
  /// num_replicas replica services, each validated by RetrievalService::
  /// Create and wrapped in an InProcessShardTransport, then assembles them
  /// through CreateFromTransports. Fails on invalid config, num_shards > N,
  /// or a non-exhaustive shard backend.
  static StatusOr<std::unique_ptr<ShardedRetrievalService>> Create(
      Tensor items, const ShardedServeConfig& config);

  /// Builds the fan-out layer over caller-supplied replica transports:
  /// shards[s] holds the replica transports of shard s, which must serve
  /// the corpus rows *in shard order* (shard s's global offset is the sum
  /// of the preceding shards' sizes — exactly how Create partitions).
  /// Replicas of one shard must agree on size. This is how a remote
  /// topology is assembled (net::ConnectShardedService); the merge, the
  /// failover machinery and the bit-identity guarantee are oblivious to
  /// where the rows live. `config.num_shards` / `num_replicas` /
  /// `config.shard` are ignored — the topology and the per-replica
  /// services are the caller's.
  static StatusOr<std::unique_ptr<ShardedRetrievalService>>
  CreateFromTransports(
      std::vector<std::vector<std::shared_ptr<ShardTransport>>> shards,
      int64_t dim, const ShardedServeConfig& config);

  /// Top-k hits for each row of `queries` [B, D] against the whole corpus,
  /// global ids, most similar first. `options.deadline_ms` bounds the whole
  /// fan-out (each shard client additionally enforces shard_timeout_ms per
  /// attempt). Fails with the first failing shard's status when
  /// require_full_coverage is set and any shard is exhausted, and with
  /// kUnavailable when *no* shard responded (there is no answer to degrade
  /// to).
  StatusOr<ShardedQueryResult> QueryBatchWithOptions(
      const Tensor& queries, int64_t k, const QueryOptions& options);

  /// Deadline-free conveniences.
  StatusOr<ShardedQueryResult> QueryBatch(const Tensor& queries, int64_t k);
  StatusOr<ShardedQueryResult> Query(const Tensor& query, int64_t k);

  ShardedServeStats Snapshot() const;
  void ResetStats();

  int64_t size() const { return rows_; }
  int64_t dim() const { return dim_; }
  int64_t num_shards() const {
    return static_cast<int64_t>(shards_.size());
  }
  const ShardedServeConfig& config() const { return config_; }

 private:
  ShardedRetrievalService(ShardedServeConfig config, int64_t rows,
                          int64_t dim,
                          std::vector<std::unique_ptr<ShardClient>> shards);

  ShardedServeConfig config_;
  int64_t rows_ = 0;
  int64_t dim_ = 0;
  std::vector<std::unique_ptr<ShardClient>> shards_;

  mutable std::mutex mu_;  // Guards stats_ (shard clients self-synchronise).
  ShardedServeStats stats_;
};

}  // namespace adamine::serve

#endif  // ADAMINE_SERVE_SHARDED_SERVICE_H_
