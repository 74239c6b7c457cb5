#include "serve/retrieval_service.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <thread>

#include "io/serialize.h"
#include "util/check.h"
#include "util/fault.h"
#include "util/stopwatch.h"

namespace adamine::serve {

const char* BackendName(Backend backend) {
  switch (backend) {
    case Backend::kScalar:
      return "scalar";
    case Backend::kExhaustive:
      return "exhaustive";
    case Backend::kQuantized:
      return "quantized";
    case Backend::kMutable:
      return "mutable";
  }
  return "unknown";
}

StatusOr<Backend> BackendFromName(const std::string& name) {
  // The registry owns the name space: a miss here reports every registered
  // backend, so the CLI, ServeConfig and ShardServer all fail the same way.
  auto canonical = CanonicalBackendName(name);
  if (!canonical.ok()) return canonical.status();
  if (*canonical == "scalar") return Backend::kScalar;
  if (*canonical == "exhaustive") return Backend::kExhaustive;
  if (*canonical == "quantized") return Backend::kQuantized;
  if (*canonical == "mutable") return Backend::kMutable;
  return Status::InvalidArgument(
      "backend '" + *canonical +
      "' is registered but cannot back an embedded RetrievalService "
      "(embeddable backends: scalar, exhaustive, quantized, mutable)");
}

Status ServeConfig::Validate() const {
  if (micro_batch <= 0) {
    return Status::InvalidArgument("micro_batch must be positive");
  }
  if (cache_capacity < 0) {
    return Status::InvalidArgument("cache_capacity must be >= 0");
  }
  if (cache_capacity_bytes < 0) {
    return Status::InvalidArgument("cache_capacity_bytes must be >= 0");
  }
  if (max_inflight < 0 || max_queue < 0) {
    return Status::InvalidArgument("max_inflight/max_queue must be >= 0");
  }
  if (max_inflight == 0 && max_queue > 0) {
    return Status::InvalidArgument(
        "max_queue requires admission control (max_inflight > 0)");
  }
  if (rerank_factor < 1) {
    return Status::InvalidArgument("rerank_factor must be >= 1");
  }
  if (seal_threshold < 1) {
    return Status::InvalidArgument("seal_threshold must be >= 1");
  }
  if (memtable_max_rows < 0 || memtable_max_bytes < 0 || max_seal_lag < 0) {
    return Status::InvalidArgument(
        "memtable budgets and max_seal_lag must be >= 0 (0 = unbounded)");
  }
  if (memtable_max_rows > 0 && memtable_max_rows < seal_threshold) {
    return Status::InvalidArgument(
        "memtable_max_rows below seal_threshold would backpressure before "
        "sealing can ever trigger");
  }
  if (admit_wait_ms < 0.0 || scrub_interval_ms < 0.0) {
    return Status::InvalidArgument(
        "admit_wait_ms/scrub_interval_ms must be >= 0");
  }
  return Status::Ok();
}

namespace {

/// The up-front embedding audit behind Create/Load: a corrupt or truncated
/// bundle must surface as a descriptive Status here, never as a CHECK
/// crash or silently wrong similarities later.
Status ValidateItems(const Tensor& items) {
  if (items.ndim() != 2) {
    return Status::InvalidArgument("items must be 2-D [N, D]");
  }
  const int64_t n = items.rows();
  const int64_t d = items.cols();
  if (d <= 0) {
    return Status::InvalidArgument("items have dimension " +
                                   std::to_string(d) + "; need dim > 0");
  }
  const float* data = items.data();
  for (int64_t i = 0; i < n; ++i) {
    double norm_sq = 0.0;
    for (int64_t j = 0; j < d; ++j) {
      const float v = data[i * d + j];
      if (!std::isfinite(v)) {
        return Status::InvalidArgument(
            "item row " + std::to_string(i) + " has a non-finite value at "
            "column " + std::to_string(j) + " (corrupt embeddings?)");
      }
      norm_sq += static_cast<double>(v) * static_cast<double>(v);
    }
    const double norm = std::sqrt(norm_sq);
    if (std::abs(norm - 1.0) > 1e-3) {
      return Status::InvalidArgument(
          "item row " + std::to_string(i) + " has L2 norm " +
          std::to_string(norm) +
          "; the service expects unit rows (within 1e-3)");
    }
  }
  return Status::Ok();
}

}  // namespace

RetrievalService::RetrievalService(const ServeConfig& config)
    : config_(config) {
  admission_ = std::make_unique<AdmissionController>(config_.max_inflight,
                                                     config_.max_queue);
}

StatusOr<std::unique_ptr<RetrievalService>> RetrievalService::Create(
    Tensor items, const ServeConfig& config) {
  ADAMINE_RETURN_IF_ERROR(config.Validate());
  ADAMINE_RETURN_IF_ERROR(ValidateItems(items));
  std::unique_ptr<RetrievalService> service(new RetrievalService(config));
  BackendConfig backend_config;
  backend_config.items = std::move(items);
  backend_config.rerank_factor = config.rerank_factor;
  backend_config.wal_dir = config.wal_dir;
  backend_config.seal_threshold = config.seal_threshold;
  backend_config.memtable_max_rows = config.memtable_max_rows;
  backend_config.memtable_max_bytes = config.memtable_max_bytes;
  backend_config.max_seal_lag = config.max_seal_lag;
  backend_config.admit_wait_ms = config.admit_wait_ms;
  backend_config.scrub_interval_ms = config.scrub_interval_ms;
  auto backend = CreateBackend(BackendName(config.backend), backend_config);
  if (!backend.ok()) return backend.status();
  service->backend_ = std::move(backend.value());
  return service;
}

StatusOr<std::unique_ptr<RetrievalService>> RetrievalService::Load(
    const std::string& path, const std::string& name,
    const ServeConfig& config) {
  auto bundle = io::LoadTensorBundle(path);
  if (!bundle.ok()) return bundle.status();
  for (auto& entry : bundle.value()) {
    if (entry.name == name) {
      return Create(std::move(entry.tensor), config);
    }
  }
  return Status::NotFound("no tensor named '" + name + "' in " + path);
}

StatusOr<int64_t> RetrievalService::Add(const Tensor& row) {
  if (!row.defined() || row.numel() != dim()) {
    return Status::InvalidArgument(
        "row must hold exactly dim = " + std::to_string(dim()) + " values");
  }
  // The same audit Create applies to the seed items: a non-finite or
  // un-normalised row must never enter the live corpus.
  Tensor audited({1, dim()});
  std::copy(row.data(), row.data() + dim(), audited.data());
  ADAMINE_RETURN_IF_ERROR(ValidateItems(audited));
  // The backend bumps its epoch on success, which re-keys the cache — no
  // explicit invalidation needed (see CacheKey).
  return backend_->Add(audited);
}

Status RetrievalService::Delete(int64_t id) { return backend_->Delete(id); }

std::string RetrievalService::CacheKey(const float* query, int64_t k) const {
  // Exact-match key: the raw query bytes plus everything that selects the
  // result — k and the backend's mutation epoch. Keying by the epoch is the
  // invalidation mechanism for live mutation: an Add / Delete bumps it,
  // every pre-mutation entry becomes unreachable (and ages out through the
  // LRU), and the same query re-scored observes the new row set. Immutable
  // backends report a constant epoch, so their keys never change.
  const int64_t epoch = backend_->epoch();
  const size_t query_bytes = sizeof(float) * static_cast<size_t>(dim());
  std::string key;
  key.resize(query_bytes + 2 * sizeof(int64_t));
  std::memcpy(key.data(), query, query_bytes);
  std::memcpy(key.data() + query_bytes, &k, sizeof(k));
  std::memcpy(key.data() + query_bytes + sizeof(k), &epoch, sizeof(epoch));
  return key;
}

bool RetrievalService::CacheLookup(const std::string& key,
                                   std::vector<int64_t>* result) {
  if (config_.cache_capacity == 0) return false;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cache_map_.find(key);
  if (it == cache_map_.end()) {
    ++stats_.cache_misses;
    return false;
  }
  ++stats_.cache_hits;
  cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second);
  *result = it->second->second;
  return true;
}

namespace {

int64_t CacheEntryBytes(const std::string& key,
                        const std::vector<int64_t>& result) {
  return static_cast<int64_t>(key.size()) +
         static_cast<int64_t>(result.size() * sizeof(int64_t));
}

/// Strips per-hit scores for the ids-only serving APIs and the LRU cache.
std::vector<int64_t> IdsOf(const std::vector<ScoredHit>& hits) {
  std::vector<int64_t> ids;
  ids.reserve(hits.size());
  for (const ScoredHit& hit : hits) ids.push_back(hit.index);
  return ids;
}

}  // namespace

void RetrievalService::CacheInsert(const std::string& key,
                                   const std::vector<int64_t>& result) {
  if (config_.cache_capacity == 0) return;
  const int64_t entry_bytes = CacheEntryBytes(key, result);
  if (config_.cache_capacity_bytes > 0 &&
      entry_bytes > config_.cache_capacity_bytes) {
    // The entry alone overflows the byte budget; inserting it would only
    // evict everything else and then itself. Serve it uncached.
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cache_map_.find(key);
  if (it != cache_map_.end()) {
    // A concurrent miss on the same query raced us here; refresh recency.
    cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second);
    return;
  }
  cache_lru_.emplace_front(key, result);
  cache_map_[key] = cache_lru_.begin();
  cache_bytes_ += entry_bytes;
  // Evict by whichever limit binds first: entry count or byte footprint.
  while (static_cast<int64_t>(cache_lru_.size()) > config_.cache_capacity ||
         (config_.cache_capacity_bytes > 0 &&
          cache_bytes_ > config_.cache_capacity_bytes)) {
    const auto& victim = cache_lru_.back();
    cache_bytes_ -= CacheEntryBytes(victim.first, victim.second);
    cache_map_.erase(victim.first);
    cache_lru_.pop_back();
    ++stats_.cache_evictions;
  }
}

Status RetrievalService::DeadlineMiss(const char* where) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.deadline_misses;
  }
  return Status::DeadlineExceeded(std::string("deadline exceeded ") + where);
}

StatusOr<std::vector<std::vector<ScoredHit>>>
RetrievalService::ScoreMicroBatch(const Tensor& queries, int64_t k,
                                  TimePoint deadline) {
  std::lock_guard<std::mutex> exec_lock(exec_mu_);
  // Re-check after acquiring the executor: a request that waited out its
  // budget in line behind slow batches must fail before burning a GEMM.
  if (std::chrono::steady_clock::now() >= deadline) {
    return DeadlineMiss("waiting for the scoring executor");
  }
  // Armed serve.score.delay simulates slow scoring (cold pages, CPU
  // contention): the skip field carries the delay in milliseconds and the
  // stall counts towards the score stage, exactly like a real slowdown.
  double stall_ms = 0.0;
  const int64_t delay_ms = fault::ArmedSkip(fault::kServeScoreDelay);
  if (delay_ms >= 0) {
    Stopwatch stall;
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
    stall_ms = stall.ElapsedMillis();
  }
  // Qualified: the QueryBatch member function shadows the struct in here.
  serve::QueryBatch batch{queries};
  auto result = backend_->ScoreTopK(batch, /*filter=*/nullptr, k,
                                    QueryOptions());
  if (!result.ok()) return result.status();
  const double score_ms = stall_ms + result->score_ms;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.batches;
    stats_.score.Record(score_ms);
    if (result->rank_ms >= 0.0) stats_.rank.Record(result->rank_ms);
  }
  return std::move(result->hits);
}

StatusOr<std::vector<std::vector<ScoredHit>>>
RetrievalService::QueryBatchScored(const Tensor& queries, int64_t k,
                                   const QueryOptions& options) {
  std::vector<std::vector<ScoredHit>> hits;
  ADAMINE_RETURN_IF_ERROR(ServeRows(queries, k, options, nullptr, &hits));
  return hits;
}

StatusOr<std::vector<int64_t>> RetrievalService::QueryWithOptions(
    const Tensor& query, int64_t k, const QueryOptions& options) {
  ADAMINE_CHECK_EQ(query.numel(), dim());
  auto results = QueryBatchWithOptions(query.Reshape({1, dim()}), k, options);
  if (!results.ok()) return results.status();
  return std::move(results.value()[0]);
}

StatusOr<std::vector<std::vector<int64_t>>>
RetrievalService::QueryBatchWithOptions(const Tensor& queries, int64_t k,
                                        const QueryOptions& options) {
  std::vector<std::vector<int64_t>> ids;
  ADAMINE_RETURN_IF_ERROR(ServeRows(queries, k, options, &ids, nullptr));
  return ids;
}

Status RetrievalService::ServeRows(const Tensor& queries, int64_t k,
                                   const QueryOptions& options,
                                   std::vector<std::vector<int64_t>>* ids,
                                   std::vector<std::vector<ScoredHit>>* hits) {
  ADAMINE_CHECK_EQ(queries.ndim(), 2);
  ADAMINE_CHECK_EQ(queries.cols(), dim());
  ADAMINE_CHECK_GT(k, 0);
  const bool cached = ids != nullptr;
  const TimePoint deadline = DeadlineOf(options);
  const int64_t b = queries.rows();
  const int64_t d = dim();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.queries += b;
  }
  if (cached) {
    ids->assign(static_cast<size_t>(b), {});
  } else {
    hits->assign(static_cast<size_t>(b), {});
  }
  // One admission slot covers the whole request; it is taken lazily at the
  // first micro-batch that actually needs scoring, so cache-only requests
  // never contend for a slot.
  std::unique_ptr<AdmissionTicket> ticket;
  for (int64_t start = 0; start < b; start += config_.micro_batch) {
    const int64_t end = std::min(b, start + config_.micro_batch);
    // Answer what the cache can; collect the misses for one shared GEMM.
    std::vector<int64_t> miss_rows;
    std::vector<std::string> miss_keys;
    for (int64_t i = start; i < end; ++i) {
      if (cached) {
        std::string key = CacheKey(queries.data() + i * d, k);
        if (CacheLookup(key, &(*ids)[static_cast<size_t>(i)])) continue;
        miss_keys.push_back(std::move(key));
      }
      miss_rows.push_back(i);
    }
    if (miss_rows.empty()) continue;
    if (!ticket) {
      ticket = std::make_unique<AdmissionTicket>(*admission_, deadline);
      ADAMINE_RETURN_IF_ERROR(ticket->status());
    }
    // A deadline check between micro-batches, so one slow batch cannot
    // hold the rest of the request's budget hostage. (The first batch's
    // check is ScoreMicroBatch's, once it holds the executor.)
    if (start > 0 && std::chrono::steady_clock::now() >= deadline) {
      return DeadlineMiss("between micro-batches");
    }
    Tensor micro({static_cast<int64_t>(miss_rows.size()), d});
    for (size_t r = 0; r < miss_rows.size(); ++r) {
      const float* src = queries.data() + miss_rows[r] * d;
      std::copy(src, src + d, micro.data() + static_cast<int64_t>(r) * d);
    }
    auto scored = ScoreMicroBatch(micro, k, deadline);
    if (!scored.ok()) return scored.status();
    for (size_t r = 0; r < miss_rows.size(); ++r) {
      const size_t row = static_cast<size_t>(miss_rows[r]);
      if (!cached) {
        (*hits)[row] = std::move(scored.value()[r]);
        continue;
      }
      std::vector<int64_t> row_ids = IdsOf(scored.value()[r]);
      CacheInsert(miss_keys[r], row_ids);
      (*ids)[row] = std::move(row_ids);
    }
  }
  return Status::Ok();
}

std::vector<int64_t> RetrievalService::Query(const Tensor& query, int64_t k) {
  auto result = QueryWithOptions(query, k, QueryOptions());
  ADAMINE_CHECK_MSG(result.ok(), result.status().ToString());
  return std::move(result.value());
}

std::vector<std::vector<int64_t>> RetrievalService::QueryBatch(
    const Tensor& queries, int64_t k) {
  auto result = QueryBatchWithOptions(queries, k, QueryOptions());
  ADAMINE_CHECK_MSG(result.ok(), result.status().ToString());
  return std::move(result.value());
}

void RetrievalService::RecordEmbedMillis(double ms) {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.embed.Record(ms);
}

ServeStats RetrievalService::Snapshot() const {
  // The admission controller and the backend's pressure gauges keep their
  // own synchronisation; read them before taking mu_ so locks never nest.
  const AdmissionStats admission = admission_->Snapshot();
  const MutationPressure pressure = backend_->pressure();
  std::lock_guard<std::mutex> lock(mu_);
  ServeStats stats = stats_;
  stats.admitted = admission.admitted;
  stats.shed = admission.shed;
  stats.queue_timeouts = admission.queue_timeouts;
  stats.inflight_peak = admission.inflight_peak;
  stats.queue_peak = admission.queue_peak;
  stats.cache_bytes = cache_bytes_;
  stats.mutation = pressure;
  // A quarantined segment (or the read-only latch) means the corpus is
  // serving but impaired: rows are gone until re-ingested, mutations may
  // be refused. Surface that as degraded health, so operators see it where
  // they already look.
  if (pressure.quarantined_segments > 0 || pressure.read_only) {
    stats.health = HealthState::kDegraded;
  }
  return stats;
}

void RetrievalService::ResetStats() {
  admission_->ResetStats();
  std::lock_guard<std::mutex> lock(mu_);
  stats_ = ServeStats();
}

}  // namespace adamine::serve
