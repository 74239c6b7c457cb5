#ifndef ADAMINE_SERVE_RETRIEVAL_SERVICE_H_
#define ADAMINE_SERVE_RETRIEVAL_SERVICE_H_

#include <chrono>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "serve/admission.h"
#include "serve/backend.h"
#include "serve/serve_stats.h"
#include "tensor/tensor.h"
#include "util/status.h"

namespace adamine::serve {

/// Thin alias over the registry names of the backends an embedded
/// RetrievalService can host (CreateBackend does the real work; see
/// serve/backend.h). Kept as an enum so configs stay trivially copyable
/// and switch-complete; BackendFromName maps any registered name string.
enum class Backend {
  /// The "scalar" reference backend: serial per-query dot products. Exact;
  /// the golden-diff oracle every other backend is compared against.
  kScalar,
  /// The "exhaustive" backend: one tiled GEMM of the query micro-batch
  /// against every item, then per-query top-k. Exact.
  kExhaustive,
  /// The "quantized" backend: int8 approximate scan + exact float rerank
  /// (src/quant/). Exact — bit-identical to the scalar reference — with a
  /// ~4x smaller scan footprint; tune via ServeConfig::rerank_factor.
  kQuantized,
  /// The "mutable" backend: a crash-safe live-mutable corpus (src/mutate/)
  /// accepting Add / Delete while serving, WAL-acknowledged and recovered
  /// after kill -9. Exact over the surviving rows; tune via
  /// ServeConfig::wal_dir / seal_threshold.
  kMutable,
};

/// The registry name of `backend` ("scalar", "exhaustive", "quantized",
/// "mutable").
const char* BackendName(Backend backend);

/// Maps a registry name to the enum. Unknown names fail with the
/// registry's kInvalidArgument listing every registered backend; names
/// that are registered but cannot back an embedded service (e.g.
/// "sharded", a topology of services rather than a backend under one)
/// fail with a kInvalidArgument naming the embeddable set.
StatusOr<Backend> BackendFromName(const std::string& name);

struct ServeConfig {
  Backend backend = Backend::kExhaustive;
  /// Candidate floor for Backend::kQuantized: the approximate scan keeps at
  /// least min(N, rerank_factor * k) rows for the exact rerank (>= 1; see
  /// serve/backend.h).
  int64_t rerank_factor = 4;
  /// Durability directory for Backend::kMutable (empty = ephemeral; see
  /// serve/backend.h and src/mutate/).
  std::string wal_dir;
  /// Memtable seal threshold for Backend::kMutable (>= 1).
  int64_t seal_threshold = 4096;
  /// Ingest admission control for Backend::kMutable (see serve/backend.h
  /// and DESIGN.md, "Resource pressure and scrubbing"): over-budget Adds
  /// shed with kResourceExhausted — transient, retry after maintenance
  /// catches up — or block up to admit_wait_ms. 0 = unbounded.
  int64_t memtable_max_rows = 0;
  int64_t memtable_max_bytes = 0;
  int64_t max_seal_lag = 0;
  double admit_wait_ms = 0.0;
  /// Background integrity-scrub cadence for Backend::kMutable
  /// (0 = scrubbing off).
  double scrub_interval_ms = 0.0;
  /// Query rows scored per GEMM dispatch. QueryBatch splits larger inputs
  /// into micro-batches of this width.
  int64_t micro_batch = 32;
  /// LRU query-result cache capacity in entries; 0 disables the cache.
  int64_t cache_capacity = 1024;
  /// LRU cache capacity in bytes (keys + results); 0 means unlimited by
  /// bytes. Eviction honours whichever limit binds first, so large-k
  /// results cannot blow past the intended memory budget.
  int64_t cache_capacity_bytes = 0;
  /// Admission control: at most max_inflight requests score concurrently
  /// and at most max_queue more wait for a slot; the rest are shed with
  /// kUnavailable. 0 disables admission control.
  int64_t max_inflight = 0;
  int64_t max_queue = 0;

  Status Validate() const;
};

/// The serving layer over an exported embedding set: loads a bundle written
/// by io::SaveTensorBundle (or wraps an in-memory tensor), hosts a
/// registry-created ScoringBackend behind one interface, micro-batches
/// incoming queries through it, memoises repeat queries in an LRU cache,
/// and keeps per-stage latency counters (ServeStats).
///
/// Overload safety (see DESIGN.md, "Overload behavior"): requests may
/// carry a deadline (QueryOptions), and a bounded admission queue sheds
/// excess load fast with kUnavailable.
///
/// Determinism: results are bit-identical to the scalar reference backend
/// for every kernel thread count (see serve/backend.h and DESIGN.md,
/// "Backend registry").
///
/// Thread safety: Query / QueryBatch / Snapshot may be called
/// concurrently. Scoring serialises *per service* on an internal executor
/// mutex (within one service, parallelism comes from the micro-batch
/// spreading over the kernel pool; distinct services — e.g. shard
/// replicas — score concurrently, the pool interleaving their jobs), while
/// cache hits proceed without waiting on in-flight scoring.
class RetrievalService {
 public:
  /// Serves the rows of `items` [N, D]. The embeddings are validated up
  /// front (2-D, dim > 0, every value finite, rows L2-normalised within
  /// 1e-3) so a corrupt bundle is a descriptive Status, never a crash.
  static StatusOr<std::unique_ptr<RetrievalService>> Create(
      Tensor items, const ServeConfig& config);

  /// Loads tensor `name` from the bundle at `path` (io::LoadTensorBundle)
  /// and serves its rows, with the same validation as Create.
  static StatusOr<std::unique_ptr<RetrievalService>> Load(
      const std::string& path, const std::string& name,
      const ServeConfig& config);

  /// Indices of the k most cosine-similar items to the unit query row [D],
  /// most similar first. Served from the cache when the exact same
  /// (query bytes, k) was answered before. Fails with
  /// kDeadlineExceeded (budget exhausted) or kUnavailable (load shed).
  StatusOr<std::vector<int64_t>> QueryWithOptions(const Tensor& query,
                                                  int64_t k,
                                                  const QueryOptions& options);

  /// Batched QueryWithOptions over the rows of `queries` [B, D]: rows are
  /// answered from the cache where possible and the misses are scored in
  /// micro-batches of config().micro_batch rows through one backend call
  /// each. results[i] corresponds to row i. The deadline is re-checked
  /// between micro-batches, so one slow batch cannot hold the budget
  /// hostage.
  StatusOr<std::vector<std::vector<int64_t>>> QueryBatchWithOptions(
      const Tensor& queries, int64_t k, const QueryOptions& options);

  /// QueryBatchWithOptions variant that also returns each hit's cosine
  /// score, for callers that merge results across services (the sharded
  /// layer). Every backend surfaces scores through the ScoringBackend
  /// seam, and exact backends guarantee (index, score) pairs bit-identical
  /// at every thread count and identical for any row subset served (each
  /// query x item dot product is an independent ascending chain). Bypasses
  /// the LRU cache — cached entries store indices only.
  StatusOr<std::vector<std::vector<ScoredHit>>> QueryBatchScored(
      const Tensor& queries, int64_t k, const QueryOptions& options);

  /// Deadline-free conveniences for callers that did not configure
  /// admission control (with it enabled these CHECK on a shed request —
  /// overload-aware callers must use the WithOptions APIs).
  std::vector<int64_t> Query(const Tensor& query, int64_t k);
  std::vector<std::vector<int64_t>> QueryBatch(const Tensor& queries,
                                               int64_t k);

  /// Live mutation, forwarded to the hosted backend (immutable backends
  /// reject both with a descriptive kFailedPrecondition). On success the
  /// mutation is durable before the call returns, and the result cache is
  /// epoch-keyed so entries cached before it can no longer be served —
  /// a repeat of a cached query observes the new row set immediately.
  StatusOr<int64_t> Add(const Tensor& row);
  Status Delete(int64_t id);

  /// Records one query-embedding forward pass run by the caller (the model
  /// lives outside the service) into the embed stage of the stats.
  void RecordEmbedMillis(double ms);

  /// Consistent snapshot of the counters since construction / ResetStats,
  /// including the overload counters (admission, deadlines) and the
  /// current health state.
  ServeStats Snapshot() const;
  void ResetStats();

  /// Live corpus geometry, from the hosted backend: on the mutable backend
  /// size() tracks Add / Delete, elsewhere it is the item count.
  int64_t size() const { return backend_->size(); }
  int64_t dim() const { return backend_->dim(); }
  const ServeConfig& config() const { return config_; }

 private:
  using TimePoint = std::chrono::steady_clock::time_point;

  explicit RetrievalService(const ServeConfig& config);

  /// Exact-match cache key: the raw query bytes, k, and the backend's
  /// mutation epoch — entries cached before an Add / Delete are keyed under
  /// the old epoch and can never be served again (they age out through the
  /// LRU).
  std::string CacheKey(const float* query, int64_t k) const;

  /// Cache lookup; on hit moves the entry to the LRU front and fills
  /// `result`. Counts the hit/miss.
  bool CacheLookup(const std::string& key, std::vector<int64_t>* result);
  void CacheInsert(const std::string& key, const std::vector<int64_t>& result);

  /// Scores `queries` [M, D] (all cache misses) through the hosted backend
  /// and ranks top-k per row, with scores. Serialised on exec_mu_; records
  /// score/rank stage latencies and honours `deadline` (kDeadlineExceeded
  /// once it has passed — checked after the executor mutex is acquired, so
  /// a request that waited out its budget in line fails fast).
  StatusOr<std::vector<std::vector<ScoredHit>>> ScoreMicroBatch(
      const Tensor& queries, int64_t k, TimePoint deadline);

  /// The one request loop behind every query API: admission -> deadline
  /// -> micro-batch -> ScoreMicroBatch. With `ids` set (QueryBatchWith-
  /// Options), rows are answered from the cache where possible and each
  /// row's ids land in (*ids)[row]; with `hits` set instead
  /// (QueryBatchScored), the cache is bypassed and each row's scored hits
  /// land in (*hits)[row]. Exactly one of the two is non-null.
  Status ServeRows(const Tensor& queries, int64_t k,
                   const QueryOptions& options,
                   std::vector<std::vector<int64_t>>* ids,
                   std::vector<std::vector<ScoredHit>>* hits);

  /// Marks a scoring-path deadline miss and returns kDeadlineExceeded.
  Status DeadlineMiss(const char* where);

  ServeConfig config_;
  std::unique_ptr<ScoringBackend> backend_;  // Registry-created.

  std::unique_ptr<AdmissionController> admission_;

  /// Serialises entry into the kernel pool (backend scoring).
  std::mutex exec_mu_;

  /// Guards cache_* and stats_.
  mutable std::mutex mu_;
  std::list<std::pair<std::string, std::vector<int64_t>>> cache_lru_;
  std::unordered_map<std::string,
                     std::list<std::pair<std::string,
                                         std::vector<int64_t>>>::iterator>
      cache_map_;
  int64_t cache_bytes_ = 0;
  ServeStats stats_;
};

}  // namespace adamine::serve

#endif  // ADAMINE_SERVE_RETRIEVAL_SERVICE_H_
