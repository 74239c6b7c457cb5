// The scoring-backend registry and the built-in engines. Every engine
// scores with kernel::DotAscending's chain (or the packed GEMM, which has
// the same per-element order) and ranks through kernel/topk.h, so each is
// bit-identical to the scalar reference (see DESIGN.md, "Backend
// registry").

#include "serve/backend.h"

#include <map>
#include <mutex>
#include <utility>

#include "kernel/gemm.h"
#include "kernel/kernel.h"
#include "mutate/mutable_backend.h"
#include "quant/quantized_backend.h"
#include "serve/sharded_service.h"
#include "util/stopwatch.h"

namespace adamine::serve {

std::chrono::steady_clock::time_point DeadlineOf(const QueryOptions& options) {
  using Clock = std::chrono::steady_clock;
  if (options.deadline_ms <= 0.0) return Clock::time_point::max();
  return Clock::now() +
         std::chrono::duration_cast<Clock::duration>(
             std::chrono::duration<double, std::milli>(options.deadline_ms));
}

namespace {

Status ValidateBackendItems(const Tensor& items) {
  if (!items.defined() || items.ndim() != 2) {
    return Status::InvalidArgument("backend items must be 2-D [N, D]");
  }
  if (items.cols() <= 0) {
    return Status::InvalidArgument("backend items need dim > 0");
  }
  return Status::Ok();
}

/// The reference implementation every other backend is golden-diffed
/// against: per-query scalar dot products, no kernel-pool batching, ranked
/// by (score desc, global id asc).
class ScalarBackend final : public ScoringBackend {
 public:
  explicit ScalarBackend(Tensor items) : items_(std::move(items)) {}

  const char* name() const override { return "scalar"; }
  int64_t size() const override { return items_.rows(); }
  int64_t dim() const override { return items_.cols(); }

 protected:
  StatusOr<TopKResult> ScoreTopKImpl(const QueryBatch& batch, int64_t k,
                                     const QueryOptions& /*options*/)
      override {
    const int64_t b = batch.queries.rows();
    const int64_t d = items_.cols();
    const int64_t n = items_.rows();
    TopKResult out;
    out.hits.resize(static_cast<size_t>(b));
    Stopwatch watch;
    std::vector<float> sims(static_cast<size_t>(n));
    std::vector<int64_t> order;
    for (int64_t i = 0; i < b; ++i) {
      const float* query = batch.queries.data() + i * d;
      for (int64_t r = 0; r < n; ++r) {
        sims[static_cast<size_t>(r)] =
            kernel::DotAscending(items_.data() + r * d, query, d);
      }
      kernel::TopKOfRow(sims.data(), n, k, &order,
                        &out.hits[static_cast<size_t>(i)]);
    }
    out.score_ms = watch.ElapsedMillis();  // Scoring and ranking are fused.
    return out;
  }

 private:
  Tensor items_;  // [N, D]
};

/// Exhaustive cosine kNN: the items are packed into GEMM panels once, at
/// construction; each batch is one GemmPacked sweep against them, then
/// per-query top-k over the kernel pool. Exact.
class ExhaustiveBackend final : public ScoringBackend {
 public:
  explicit ExhaustiveBackend(const Tensor& items)
      : items_(kernel::PackB(items.data(), items.cols(), /*trans_b=*/true,
                             items.cols(), items.rows())) {}

  const char* name() const override { return "exhaustive"; }
  int64_t size() const override { return items_.n(); }
  int64_t dim() const override { return items_.k(); }

 protected:
  StatusOr<TopKResult> ScoreTopKImpl(const QueryBatch& batch, int64_t k,
                                     const QueryOptions& /*options*/)
      override {
    const int64_t m = batch.queries.rows();
    const int64_t n = items_.n();
    TopKResult out;
    Stopwatch watch;
    Tensor sims({m, n});
    kernel::GemmPacked(batch.queries.data(), dim(), false, items_, m,
                       sims.data());
    out.score_ms = watch.ElapsedMillis();
    watch.Restart();
    out.hits.resize(static_cast<size_t>(m));
    kernel::ParallelFor(m, kernel::kRowGrain, [&](int64_t i0, int64_t i1) {
      std::vector<int64_t> order;
      for (int64_t i = i0; i < i1; ++i) {
        kernel::TopKOfRow(sims.data() + i * n, n, k, &order,
                          &out.hits[static_cast<size_t>(i)]);
      }
    });
    out.rank_ms = watch.ElapsedMillis();
    return out;
  }

 private:
  const kernel::PackedB items_;  // The [N, D] items, transposed into panels.
};

/// The in-process sharded fan-out/fan-in behind the backend seam: the
/// corpus partitioned across exhaustive shards, merged by (score desc,
/// global id asc). Exact whenever every shard responds.
class ShardedBackend final : public ScoringBackend {
 public:
  explicit ShardedBackend(std::unique_ptr<ShardedRetrievalService> service)
      : service_(std::move(service)) {}

  const char* name() const override { return "sharded"; }
  int64_t size() const override { return service_->size(); }
  int64_t dim() const override { return service_->dim(); }

 protected:
  StatusOr<TopKResult> ScoreTopKImpl(const QueryBatch& batch, int64_t k,
                                     const QueryOptions& options) override {
    Stopwatch watch;
    auto merged = service_->QueryBatchWithOptions(batch.queries, k, options);
    if (!merged.ok()) return merged.status();
    TopKResult out;
    out.hits = std::move(merged->results);
    out.score_ms = watch.ElapsedMillis();
    return out;
  }

 private:
  std::unique_ptr<ShardedRetrievalService> service_;
};

struct RegistryEntry {
  BackendFactory factory;
  BackendTraits traits;
};

struct Registry {
  std::mutex mu;
  std::map<std::string, RegistryEntry> entries;  // Sorted by name.
};

/// The built-ins are registered on the registry's first access rather than
/// through per-TU static initializers: a static library drops the
/// initializers of unreferenced TUs, so self-registration from elsewhere
/// would silently vanish from binaries that never name those TUs.
Registry& GlobalRegistry() {
  static Registry& registry = *[]() {
    auto* r = new Registry();
    r->entries["scalar"] = {
        [](const BackendConfig& config)
            -> StatusOr<std::unique_ptr<ScoringBackend>> {
          ADAMINE_RETURN_IF_ERROR(ValidateBackendItems(config.items));
          return std::unique_ptr<ScoringBackend>(
              new ScalarBackend(config.items));
        },
        BackendTraits{}};
    r->entries["exhaustive"] = {
        [](const BackendConfig& config)
            -> StatusOr<std::unique_ptr<ScoringBackend>> {
          ADAMINE_RETURN_IF_ERROR(ValidateBackendItems(config.items));
          return std::unique_ptr<ScoringBackend>(
              new ExhaustiveBackend(config.items));
        },
        BackendTraits{}};
    r->entries["sharded"] = {
        [](const BackendConfig& config)
            -> StatusOr<std::unique_ptr<ScoringBackend>> {
          ADAMINE_RETURN_IF_ERROR(ValidateBackendItems(config.items));
          ShardedServeConfig sharded;
          sharded.num_shards = config.num_shards;
          sharded.num_replicas = config.num_replicas;
          sharded.shard.backend = Backend::kExhaustive;
          sharded.shard.cache_capacity = 0;
          auto service =
              ShardedRetrievalService::Create(config.items, sharded);
          if (!service.ok()) return service.status();
          return std::unique_ptr<ScoringBackend>(
              new ShardedBackend(std::move(service).value()));
        },
        BackendTraits{/*sharded=*/true}};
    r->entries["quantized"] = {
        [](const BackendConfig& config)
            -> StatusOr<std::unique_ptr<ScoringBackend>> {
          ADAMINE_RETURN_IF_ERROR(ValidateBackendItems(config.items));
          // Two-stage int8 scan + exact rerank (src/quant/); registered
          // here rather than from its own TU so static-lib dead-stripping
          // cannot lose the entry.
          return quant::CreateQuantizedBackend(config);
        },
        BackendTraits{}};
    r->entries["mutable"] = {
        [](const BackendConfig& config)
            -> StatusOr<std::unique_ptr<ScoringBackend>> {
          ADAMINE_RETURN_IF_ERROR(ValidateBackendItems(config.items));
          // WAL-backed crash-safe live mutation (src/mutate/); like
          // quantized, registered here so dead-stripping cannot lose it.
          return mutate::CreateMutableBackend(config);
        },
        BackendTraits{}};
    return r;
  }();
  return registry;
}

/// Caller holds registry.mu.
std::string JoinRegisteredNames(const Registry& registry) {
  std::string names;
  for (const auto& [name, entry] : registry.entries) {
    if (!names.empty()) names += ", ";
    names += name;
  }
  return names;
}

Status UnknownBackend(const std::string& name, const Registry& registry) {
  return Status::InvalidArgument("unknown backend '" + name +
                                 "'; registered backends: " +
                                 JoinRegisteredNames(registry));
}

}  // namespace

StatusOr<TopKResult> ScoringBackend::ScoreTopK(const QueryBatch& batch,
                                               const Filter* filter,
                                               int64_t k,
                                               const QueryOptions& options) {
  if (k <= 0) {
    return Status::InvalidArgument("k must be positive");
  }
  if (filter != nullptr) {
    return Status::Unimplemented(
        std::string("backend '") + name() +
        "' does not support filtered retrieval yet (the predicate-pushdown "
        "seam is reserved; see DESIGN.md, \"Backend registry\")");
  }
  if (batch.empty()) return TopKResult{};  // Zero queries, zero rows.
  if (batch.queries.ndim() != 2) {
    return Status::InvalidArgument("queries must be 2-D [B, D]");
  }
  if (batch.queries.cols() != dim()) {
    return Status::InvalidArgument(
        "query dim " + std::to_string(batch.queries.cols()) +
        " does not match corpus dim " + std::to_string(dim()));
  }
  return ScoreTopKImpl(batch, k, options);
}

StatusOr<int64_t> ScoringBackend::Add(const Tensor& /*row*/) {
  return Status::FailedPrecondition(
      std::string("backend '") + name() +
      "' is immutable (live mutation needs the mutable backend; see "
      "src/mutate/)");
}

Status ScoringBackend::Delete(int64_t /*id*/) {
  return Status::FailedPrecondition(
      std::string("backend '") + name() +
      "' is immutable (live mutation needs the mutable backend; see "
      "src/mutate/)");
}

Status RegisterBackend(const std::string& name, BackendFactory factory,
                       const BackendTraits& traits) {
  if (name.empty()) {
    return Status::InvalidArgument("backend name must be non-empty");
  }
  if (!factory) {
    return Status::InvalidArgument("backend '" + name +
                                   "' registered without a factory");
  }
  Registry& registry = GlobalRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  if (registry.entries.count(name) != 0) {
    return Status::InvalidArgument("backend '" + name +
                                   "' is already registered");
  }
  registry.entries[name] = {std::move(factory), traits};
  return Status::Ok();
}

StatusOr<std::unique_ptr<ScoringBackend>> CreateBackend(
    const std::string& name, const BackendConfig& config) {
  BackendFactory factory;
  {
    Registry& registry = GlobalRegistry();
    std::lock_guard<std::mutex> lock(registry.mu);
    auto it = registry.entries.find(name);
    if (it == registry.entries.end()) {
      return UnknownBackend(name, registry);
    }
    factory = it->second.factory;
  }
  // The factory runs outside the registry lock: building an index or
  // booting a remote topology may be slow, and a factory may itself
  // consult the registry.
  return factory(config);
}

std::vector<std::string> RegisteredBackendNames() {
  Registry& registry = GlobalRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  std::vector<std::string> names;
  names.reserve(registry.entries.size());
  for (const auto& [name, entry] : registry.entries) names.push_back(name);
  return names;
}

StatusOr<std::string> CanonicalBackendName(const std::string& name) {
  Registry& registry = GlobalRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  auto it = registry.entries.find(name);
  if (it == registry.entries.end()) return UnknownBackend(name, registry);
  return it->first;
}

StatusOr<BackendTraits> TraitsOfBackend(const std::string& name) {
  Registry& registry = GlobalRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  auto it = registry.entries.find(name);
  if (it == registry.entries.end()) return UnknownBackend(name, registry);
  return it->second.traits;
}

}  // namespace adamine::serve
