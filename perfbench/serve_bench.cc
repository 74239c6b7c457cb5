// Serving benchmark driver: runs one seeded workload of the cross-modal
// retrieval service through the library's public APIs, checks every answer
// against the "scalar" oracle, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics) as the last line of stdout, one JSON
// object. See perfbench/README.md for the workloads, the metric -> layer ->
// workload table and the noise notes; perfbench/run.py builds and runs it.
//
//   serve_bench --workload photo_search|text_search|recipe_bulk|live_ingest
//               --seed N --seconds S --trace 0|1 --tmp DIR
//               [--spans FILE] [--source ID]

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/pipeline.h"
#include "harness.h"
#include "kernel/gemm.h"
#include "kernel/kernel.h"
#include "net/remote_transport.h"
#include "net/shard_server.h"
#include "serve/backend.h"
#include "serve/retrieval_service.h"
#include "serve/sharded_service.h"
#include "tensor/ops.h"
#include "text/tokenizer.h"
#include "util/check.h"

namespace perfbench {
namespace {

using adamine::Rng;
using adamine::Tensor;
namespace core = adamine::core;
namespace data = adamine::data;
namespace net = adamine::net;
namespace serve = adamine::serve;

// Shared set-up. Changing any of these redefines the benchmark.
constexpr int64_t kCorpusRows = 20000;
constexpr int64_t kClasses = 192;
constexpr int64_t kLatentDim = 128;
constexpr int kKernelThreads = 2;
constexpr int64_t kTopK = 10;
constexpr int kSetups = 4;  // setup_s is the median of this many set-ups.
constexpr int64_t kEmbedChunk = 256;
// photo_search
constexpr int64_t kShards = 2;
constexpr int kShardWorkers = 2;
// text_search / live_ingest
constexpr int64_t kTextQueries = 8192;
constexpr int64_t kCacheEntries = 1024;
constexpr int64_t kTextWarmup = 2048;
// recipe_bulk
constexpr int64_t kBulkBatch = 64;
constexpr int64_t kMicroBatch = 32;
constexpr int64_t kBulkChunkBatches = 16;
// live_ingest
constexpr double kWriterOpsPerSec = 200.0;
constexpr int64_t kDeleteEvery = 10;
constexpr int64_t kSealThreshold = 512;
constexpr int64_t kMergeThreshold = 4;  // The mutable corpus's default.
constexpr int64_t kProbeQueries = 64;
// Inputs generated per off-clock chunk; the input digest covers the first.
constexpr int64_t kInputChunk = 256;
constexpr int64_t kWarmupRequests = 64;

uint64_t SubSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

template <typename... A>
std::string Format(const char* fmt, A... args) {
  char buf[1024];
  std::snprintf(buf, sizeof(buf), fmt, args...);
  return buf;
}

template <typename T>
T Check(adamine::StatusOr<T> result, const char* what) {
  ADAMINE_CHECK_MSG(result.ok(), what << ": " << result.status().ToString());
  return std::move(result).value();
}

Tensor Row(const Tensor& m, int64_t i) {
  return adamine::SliceRows(m, i, i + 1);
}

// ------------------------------------------------------------------- world

/// The dataset, the model and one embedded corpus: what every workload
/// serves. `pipeline_s` and `embed_corpus_s` time its two costly steps.
struct World {
  std::unique_ptr<core::Pipeline> pipeline;
  std::unique_ptr<core::CrossModalModel> model;
  core::ModelConfig model_config;
  std::vector<const data::Recipe*> recipes;  // Corpus order.
  std::vector<const data::EncodedRecipe*> encoded;
  Tensor corpus;  // [kCorpusRows, kLatentDim] unit rows.
  double pipeline_s = 0.0;
  double embed_corpus_s = 0.0;

  /// A fresh model with the same weights, for a second thread.
  std::unique_ptr<core::CrossModalModel> CloneModel() const {
    auto model = Check(core::CrossModalModel::Create(
                           model_config, &pipeline->word_embeddings()),
                       "model");
    model->SetTrainable(false);
    return model;
  }
};

enum class CorpusSide { kImages, kRecipes };

World BuildWorld(uint64_t seed, CorpusSide side) {
  World w;
  TimePoint t0 = Clock::now();
  core::PipelineConfig config;
  config.generator.num_recipes = kCorpusRows;
  config.generator.num_classes = kClasses;
  config.generator.seed = SubSeed(seed, 1);
  config.word2vec.seed = SubSeed(seed, 2);
  config.split_seed = SubSeed(seed, 3);
  config.model.latent_dim = kLatentDim;
  config.model.seed = SubSeed(seed, 4);
  config.kernel.num_threads = kKernelThreads;
  w.pipeline = Check(core::Pipeline::Create(config), "pipeline");
  w.pipeline_s = MillisBetween(t0, Clock::now()) * 1e-3;

  w.model_config = w.pipeline->config().model;
  w.model_config.vocab_size = w.pipeline->vocab().size();
  w.model_config.image_dim = w.pipeline->config().generator.image_dim;
  w.model_config.num_classes = w.pipeline->config().generator.num_classes;
  w.model = w.CloneModel();

  const data::DatasetSplits& splits = w.pipeline->splits();
  const std::vector<data::EncodedRecipe>* sets[] = {
      &w.pipeline->train_set(), &w.pipeline->val_set(),
      &w.pipeline->test_set()};
  const data::Dataset* raw[] = {&splits.train, &splits.val, &splits.test};
  for (int s = 0; s < 3; ++s) {
    for (size_t i = 0; i < sets[s]->size(); ++i) {
      w.encoded.push_back(&(*sets[s])[i]);
      w.recipes.push_back(&raw[s]->recipes[i]);
    }
  }
  ADAMINE_CHECK_EQ(static_cast<int64_t>(w.encoded.size()), kCorpusRows);

  t0 = Clock::now();
  const int64_t image_dim = w.model_config.image_dim;
  w.corpus = Tensor({kCorpusRows, kLatentDim});
  for (int64_t lo = 0; lo < kCorpusRows; lo += kEmbedChunk) {
    const int64_t hi = std::min(kCorpusRows, lo + kEmbedChunk);
    Tensor emb;
    if (side == CorpusSide::kRecipes) {
      std::vector<const data::EncodedRecipe*> batch(
          w.encoded.begin() + lo, w.encoded.begin() + hi);
      emb = w.model->EmbedRecipes(batch).value();
    } else {
      Tensor images({hi - lo, image_dim});
      for (int64_t i = lo; i < hi; ++i) {
        std::memcpy(images.data() + (i - lo) * image_dim,
                    w.encoded[static_cast<size_t>(i)]->image.data(),
                    sizeof(float) * static_cast<size_t>(image_dim));
      }
      emb = w.model->EmbedImages(images).value();
    }
    std::memcpy(w.corpus.data() + lo * kLatentDim, emb.data(),
                sizeof(float) * static_cast<size_t>(emb.numel()));
  }
  w.embed_corpus_s = MillisBetween(t0, Clock::now()) * 1e-3;
  return w;
}

/// `n` fresh photos of random corpus dishes: the generator's renderer with
/// new photo noise, so no two are bit-identical. Each is [1, image_dim].
std::vector<Tensor> RenderPhotos(const World& w, int64_t n, Rng& pick,
                                 Rng& noise) {
  std::vector<Tensor> photos;
  const data::RecipeGenerator& gen = w.pipeline->generator();
  for (int64_t i = 0; i < n; ++i) {
    const data::Recipe* dish =
        w.recipes[static_cast<size_t>(pick.UniformInt(kCorpusRows))];
    Tensor photo = gen.RenderImage(dish->image_latent, noise);
    photos.push_back(photo.Reshape({1, photo.numel()}));
  }
  return photos;
}

// ------------------------------------------------------------ phase result

/// What one timed phase measured. Counters come from the libraries' public
/// stats and from /proc; latencies from the benchmark's own clock.
struct PhaseResult {
  int64_t attempted = 0;
  int64_t failed = 0;      // Errors, sheds, deadline misses, partials.
  int64_t query_rows = 0;  // Rows answered.
  int64_t ops = 0;         // Queries answered + mutations acked.
  std::vector<double> latency_ms;  // Per query request.
  double wall_s = 0.0;
  double cpu_ms = 0.0;
  int64_t ctx_switches = 0;
  double peak_rss_mib = 0.0;
  int64_t threads_peak = 0;
  // Traced runs: rows and calls replayed on the backend, and the GEMM
  // shape replayed (m x k times n x k).
  int64_t backend_rows = 0;
  int64_t backend_calls = 0;
  int64_t gemm_m = 0, gemm_n = 0, gemm_k = 0;
  std::map<std::string, double> layer;  // Counter-style per-layer metrics.
  // Per-layer timings of layers only this workload has, printed as
  // "# layer" lines: (name, value, unit).
  std::vector<std::tuple<std::string, double, std::string>> own_layers;
  std::vector<std::string> notes;       // Diagnostics, printed only.
};

/// Outcome of the off-clock oracle check of a phase's answers.
struct Verification {
  int64_t mismatches = 0;
  int64_t checked = 0;
  std::string answer_digest = "n/a";
  std::vector<std::string> notes;
};

/// Per-request trace context: the span log of the calling thread and the
/// request's root span (log == nullptr when tracing is off).
struct TraceCtx {
  SpanLog* log = nullptr;
  int64_t request = 0;
  int32_t root = -1;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// One closed-loop phase of `seconds` on the phase clock. `logs` is empty
  /// when tracing is off, else one span log per load thread.
  virtual PhaseResult Run(double seconds, std::vector<SpanLog>* logs) = 0;
  /// Checks the last phase's answers against the scalar oracle.
  virtual Verification Verify() = 0;
  /// Digest of the corpus and the first chunk of generated inputs.
  virtual std::string InputDigest() const = 0;
  const World& world() const { return world_; }

 protected:
  World world_;
};

/// Fills the end-of-phase fields every workload reports the same way.
void FinishPhase(const PhaseClock& clock, PhaseResult* r) {
  r->wall_s = clock.wall_s();
  r->cpu_ms = clock.cpu_ms();
  r->ctx_switches = clock.ctx_switches();
  r->peak_rss_mib = PeakRssMiB();
  r->layer["proc.ctx_switches_per_op"] =
      r->ops > 0 ? static_cast<double>(r->ctx_switches) / r->ops : 0.0;
}

int OracleThreads() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return static_cast<int>(std::clamp<long>(n, 1, 4));
}

/// Replays one scoring call on `backend` over the same rows.
void ReplayScore(const TraceCtx& t, serve::ScoringBackend& backend,
                 const Tensor& rows, PhaseResult* r) {
  {
    ScopedSpan span(t.log, "backend.score", t.request, t.root);
    Check(backend.ScoreTopK({rows}, nullptr, kTopK, {}), "replay");
  }
  r->backend_rows += rows.rows();
  ++r->backend_calls;
}

/// Replays one GEMM at the shape a scoring call used: [m, k] x [n, k]^T.
void ReplayGemm(const TraceCtx& t, const Tensor& queries, const Tensor& items,
                std::vector<float>* out, PhaseResult* r) {
  const int64_t m = queries.rows();
  const int64_t n = items.rows();
  const int64_t k = items.cols();
  out->resize(static_cast<size_t>(m * n));
  {
    ScopedSpan span(t.log, "kernel.gemm", t.request, t.root);
    adamine::kernel::Gemm(queries.data(), k, false, items.data(), k, true, m,
                          n, k, out->data());
  }
  r->gemm_m = m;
  r->gemm_n = n;
  r->gemm_k = k;
}

// ------------------------------------------------------------ photo_search

/// Dish photo in, recipes out: EmbedImages, then the sharded service over
/// two loopback ShardServers, each an exhaustive shard of the recipe
/// embeddings. Every photo is freshly rendered, so no two are identical.
class PhotoSearch final : public Workload {
 public:
  explicit PhotoSearch(uint64_t seed)
      : photo_rng_(SubSeed(seed, 10)), pick_rng_(SubSeed(seed, 11)) {
    world_ = BuildWorld(seed, CorpusSide::kRecipes);
    const int64_t per = (kCorpusRows + kShards - 1) / kShards;
    std::vector<std::string> endpoints;
    for (int64_t s = 0; s < kShards; ++s) {
      const int64_t lo = s * per;
      const int64_t hi = std::min(kCorpusRows, lo + per);
      shard_rows_.push_back(adamine::SliceRows(world_.corpus, lo, hi));
      serve::ServeConfig config;
      config.backend = serve::Backend::kExhaustive;
      config.cache_capacity = 0;
      services_.push_back(
          Check(serve::RetrievalService::Create(shard_rows_.back(), config),
                "shard service"));
      serve::BackendConfig backend_config;
      backend_config.items = shard_rows_.back();
      replay_backends_.push_back(
          Check(serve::CreateBackend("exhaustive", backend_config),
                "replay backend"));
      servers_.push_back(std::make_unique<net::ShardServer>());
      net::ShardServerConfig server_config;
      server_config.num_workers = kShardWorkers;
      auto st = servers_.back()->Start(services_.back(), server_config);
      ADAMINE_CHECK_MSG(st.ok(), st.ToString());
      endpoints.push_back("127.0.0.1:" +
                          std::to_string(servers_.back()->port()));
    }
    sharded_ = Check(
        net::ConnectShardedService(endpoints, serve::ShardedServeConfig()),
        "connect");
    // The first chunk of the timed stream is rendered here, so the digest
    // covers it; warm-up photos come from their own stream.
    Rng warm_rng(SubSeed(seed, 12));
    for (const Tensor& photo :
         RenderPhotos(world_, kWarmupRequests, pick_rng_, warm_rng)) {
      Check(sharded_->QueryBatch(world_.model->EmbedImages(photo).value(),
                                 kTopK),
            "warm-up");
    }
    pool_ = RenderPhotos(world_, kInputChunk, pick_rng_, photo_rng_);
    digest_.Add(world_.corpus);
    for (const Tensor& photo : pool_) digest_.Add(photo);
  }

  ~PhotoSearch() override {
    sharded_.reset();
    for (auto& server : servers_) server->Stop();
  }

  std::string InputDigest() const override { return digest_.Hex(); }

  PhaseResult Run(double seconds, std::vector<SpanLog>* logs) override {
    PhaseResult r;
    SpanLog* log = logs->empty() ? nullptr : &(*logs)[0];
    asked_.clear();
    answers_.clear();
    const serve::ShardedServeStats sharded0 = sharded_->Snapshot();
    const std::vector<net::ShardServerStats> server0 = ServerStats();
    PhaseClock clock;
    clock.Start();
    for (int64_t rid = 0; clock.Elapsed() < seconds; ++rid) {
      if (next_ == pool_.size()) {
        clock.Pause();
        pool_ = RenderPhotos(world_, kInputChunk, pick_rng_, photo_rng_);
        next_ = 0;
        clock.Resume();
      }
      const Tensor& photo = pool_[next_++];
      TraceCtx t{log, rid, log ? log->Begin("request", rid, -1) : -1};
      const TimePoint t0 = Clock::now();
      Tensor emb;
      {
        ScopedSpan span(log, "core.embed_image", rid, t.root);
        emb = world_.model->EmbedImages(photo).value();
      }
      adamine::StatusOr<serve::ShardedQueryResult> result =
          adamine::Status::Internal("not run");
      {
        ScopedSpan span(log, "sharded.call", rid, t.root);
        result = sharded_->QueryBatch(emb, kTopK);
      }
      const TimePoint t1 = Clock::now();
      if (log) log->End(t.root);
      r.latency_ms.push_back(MillisBetween(t0, t1));
      ++r.attempted;
      asked_.push_back(emb);
      if (!result.ok() || result->partial || result->results.size() != 1) {
        ++r.failed;
        answers_.emplace_back();
      } else {
        ++r.ops;
        ++r.query_rows;
        answers_.push_back(std::move(result->results[0]));
      }
      if (log) {
        clock.Pause();
        Replay(emb, t, &r);
        r.threads_peak = std::max(r.threads_peak, ThreadCount());
        clock.Resume();
      }
    }
    clock.Stop();
    FinishPhase(clock, &r);
    const serve::ShardedServeStats sharded1 = sharded_->Snapshot();
    const std::vector<net::ShardServerStats> server1 = ServerStats();
    int64_t dials = 0, requests = 0;
    for (size_t s = 0; s < server1.size(); ++s) {
      dials +=
          server1[s].connections_accepted - server0[s].connections_accepted;
      requests += (server1[s].requests_ok + server1[s].requests_failed) -
                  (server0[s].requests_ok + server0[s].requests_failed);
    }
    r.layer["net.pool_hit_ratio"] =
        requests > 0 ? 1.0 - static_cast<double>(dials) / requests : 0.0;
    r.layer["shard.retries"] =
        static_cast<double>(sharded1.retries - sharded0.retries);
    r.layer["shard.hedges"] =
        static_cast<double>(sharded1.hedges_fired - sharded0.hedges_fired);
    r.layer["sharded.partial"] = static_cast<double>(
        sharded1.partial_results - sharded0.partial_results);
    r.notes.push_back("shard rpc: " + std::to_string(requests) +
                      " requests, " + std::to_string(dials) + " dials");
    return r;
  }

  Verification Verify() override {
    Verification v;
    if (asked_.empty()) return v;
    Tensor queries({static_cast<int64_t>(asked_.size()), kLatentDim});
    for (size_t i = 0; i < asked_.size(); ++i) {
      std::memcpy(queries.data() + i * kLatentDim, asked_[i].data(),
                  sizeof(float) * kLatentDim);
    }
    Oracle oracle(world_.corpus);
    const auto want = oracle.TopK(queries, kTopK, OracleThreads());
    Digest answers;
    for (size_t i = 0; i < want.size(); ++i) {
      ++v.checked;
      if (!answers_[i].empty() && !SameHits(answers_[i], want[i])) {
        ++v.mismatches;
      }
      if (i < 64) {
        for (const auto& hit : answers_[i]) {
          answers.AddInt(hit.index);
          answers.Add(&hit.score, sizeof(float));
        }
      }
    }
    v.answer_digest = answers.Hex();
    return v;
  }

 private:
  std::vector<net::ShardServerStats> ServerStats() const {
    std::vector<net::ShardServerStats> stats;
    for (const auto& server : servers_) stats.push_back(server->Snapshot());
    return stats;
  }

  /// One layer down: each shard's service in-process, each shard's backend
  /// over the same rows, and the GEMM at the shard's shape.
  void Replay(const Tensor& emb, const TraceCtx& t, PhaseResult* r) {
    for (size_t s = 0; s < services_.size(); ++s) {
      {
        ScopedSpan span(t.log, "shard.service", t.request, t.root);
        Check(services_[s]->QueryBatchScored(emb, kTopK, {}), "replay");
      }
      ReplayScore(t, *replay_backends_[s], emb, r);
      ReplayGemm(t, emb, shard_rows_[s], &gemm_out_, r);
    }
  }

  Rng photo_rng_;
  Rng pick_rng_;
  std::vector<Tensor> shard_rows_;
  std::vector<std::shared_ptr<serve::RetrievalService>> services_;
  std::vector<std::unique_ptr<serve::ScoringBackend>> replay_backends_;
  std::vector<std::unique_ptr<net::ShardServer>> servers_;
  std::unique_ptr<serve::ShardedRetrievalService> sharded_;
  std::vector<Tensor> pool_;
  size_t next_ = 0;
  Digest digest_;
  std::vector<Tensor> asked_;
  std::vector<std::vector<serve::ScoredHit>> answers_;
  std::vector<float> gemm_out_;
};

// ------------------------------------------------------------ text queries

/// kTextQueries distinct ingredient-word queries ("garlic olive_oil ..."),
/// in seeded random order, drawn Zipf(1) by rank.
class TextQueries {
 public:
  TextQueries(const data::RecipeGenerator& generator, uint64_t seed)
      : zipf_(kTextQueries, 1.0) {
    const auto& names = generator.inventory().ingredients();
    Rng rng(seed);
    std::set<std::string> seen;
    while (static_cast<int64_t>(queries_.size()) < kTextQueries) {
      const int64_t words = 1 + rng.UniformInt(3);
      std::string q;
      for (int64_t w = 0; w < words; ++w) {
        if (w > 0) q += ' ';
        q += names[static_cast<size_t>(
            rng.UniformInt(static_cast<int64_t>(names.size())))];
      }
      if (seen.insert(q).second) queries_.push_back(q);
    }
  }

  int64_t Next(Rng& rng) const { return zipf_.Sample(rng); }
  const std::string& query(int64_t q) const {
    return queries_[static_cast<size_t>(q)];
  }

 private:
  ZipfSampler zipf_;
  std::vector<std::string> queries_;
};

/// The CLI `query` path: Tokenize, Vocabulary::Encode, EmbedRecipes.
Tensor EmbedText(const World& w, const core::CrossModalModel& model,
                 const std::string& q, const TraceCtx& t) {
  data::EncodedRecipe encoded;
  {
    ScopedSpan span(t.log, "text.encode", t.request, t.root);
    encoded.ingredient_tokens =
        w.pipeline->vocab().Encode(adamine::text::Tokenize(q));
  }
  ScopedSpan span(t.log, "core.embed_recipe", t.request, t.root);
  return model.EmbedRecipes({&encoded}).value();
}

/// A closed-loop reader of the text query stream against `service`,
/// shared by text_search and live_ingest. Records what it asked and what
/// it got, for the oracle check.
class TextReader {
 public:
  TextReader(const World& w, const TextQueries& queries, uint64_t seed)
      : world_(w), queries_(queries), seed_(seed), rng_(seed) {}

  /// Adds the first kInputChunk queries of the stream to `digest`.
  void AddStreamPreview(Digest* digest) const {
    Rng preview(seed_);
    for (int64_t i = 0; i < kInputChunk; ++i) {
      digest->Add(queries_.query(queries_.Next(preview)));
    }
  }

  /// One request of the stream; true when answered.
  bool Request(serve::RetrievalService& service, const TraceCtx& t,
               PhaseResult* r) {
    const int64_t q = queries_.Next(rng_);
    const TimePoint t0 = Clock::now();
    const Tensor emb = EmbedText(world_, *world_.model, queries_.query(q), t);
    adamine::StatusOr<std::vector<int64_t>> ids =
        adamine::Status::Internal("not run");
    {
      ScopedSpan span(t.log, "serve.call", t.request, t.root);
      ids = service.QueryWithOptions(emb.Reshape({kLatentDim}), kTopK, {});
    }
    r->latency_ms.push_back(MillisBetween(t0, Clock::now()));
    ++r->attempted;
    asked_.push_back(q);
    rows_.push_back(emb);
    if (!ids.ok()) {
      ++r->failed;
      answers_.emplace_back();
      return false;
    }
    ++r->ops;
    ++r->query_rows;
    answers_.push_back(std::move(ids).value());
    return true;
  }

  /// Requests of the text stream, answered off the phase clock.
  void Warm(serve::RetrievalService& service, int64_t n, uint64_t seed) {
    Rng rng(seed);
    for (int64_t i = 0; i < n; ++i) {
      const std::string& q = queries_.query(queries_.Next(rng));
      const Tensor emb = EmbedText(world_, *world_.model, q, {});
      Check(service.QueryWithOptions(emb.Reshape({kLatentDim}), kTopK, {}),
            "warm-up");
    }
  }

  const Tensor& last_row() const { return rows_.back(); }

  void Clear() {
    asked_.clear();
    rows_.clear();
    answers_.clear();
  }

  /// Every answer must equal the oracle's for its query, and every request
  /// for one query must have embedded it to the same bits.
  Verification Verify(const Oracle& oracle) const {
    Verification v;
    std::map<int64_t, size_t> first;  // query -> first request index.
    for (size_t i = 0; i < asked_.size(); ++i) first.emplace(asked_[i], i);
    if (first.empty()) return v;
    Tensor queries({static_cast<int64_t>(first.size()), kLatentDim});
    std::map<int64_t, size_t> slot;
    for (const auto& [q, i] : first) {
      std::memcpy(queries.data() + slot.size() * kLatentDim, rows_[i].data(),
                  sizeof(float) * kLatentDim);
      slot.emplace(q, slot.size());
    }
    const auto want = oracle.TopK(queries, kTopK, OracleThreads());
    Digest answers;
    for (size_t i = 0; i < asked_.size(); ++i) {
      ++v.checked;
      const size_t s = slot.at(asked_[i]);
      const Tensor& canonical = rows_[first.at(asked_[i])];
      const bool same_row =
          std::memcmp(canonical.data(), rows_[i].data(),
                      sizeof(float) * kLatentDim) == 0;
      if (answers_[i].empty()) continue;  // Already counted as failed.
      if (!same_row || !SameIds(answers_[i], want[s])) ++v.mismatches;
      if (i < 64) {
        for (int64_t id : answers_[i]) answers.AddInt(id);
      }
    }
    v.answer_digest = answers.Hex();
    return v;
  }

 private:
  const World& world_;
  const TextQueries& queries_;
  uint64_t seed_;
  Rng rng_;
  std::vector<int64_t> asked_;
  std::vector<Tensor> rows_;
  std::vector<std::vector<int64_t>> answers_;
};

/// Counts the service's cache lookups over a phase.
void CacheCounters(const serve::ServeStats& s, PhaseResult* r) {
  const int64_t lookups = s.cache_hits + s.cache_misses;
  r->layer["serve.cache_hits"] = static_cast<double>(s.cache_hits);
  r->layer["serve.cache_lookups"] = static_cast<double>(lookups);
  r->layer["serve.cache_hit_ratio"] =
      lookups > 0 ? static_cast<double>(s.cache_hits) / lookups : 0.0;
}

// ------------------------------------------------------------- text_search

/// Ingredient words in, photos out, on the int8 "quantized" backend with
/// the default 1,024-entry result cache; popular queries repeat.
class TextSearch final : public Workload {
 public:
  explicit TextSearch(uint64_t seed) {
    world_ = BuildWorld(seed, CorpusSide::kImages);
    queries_ = std::make_unique<TextQueries>(world_.pipeline->generator(),
                                             SubSeed(seed, 20));
    reader_ =
        std::make_unique<TextReader>(world_, *queries_, SubSeed(seed, 21));
    serve::ServeConfig config;
    config.backend = serve::Backend::kQuantized;
    config.cache_capacity = kCacheEntries;
    service_ = Check(serve::RetrievalService::Create(world_.corpus, config),
                     "service");
    serve::BackendConfig backend_config;
    backend_config.items = world_.corpus;
    replay_backend_ =
        Check(serve::CreateBackend("quantized", backend_config), "backend");
    reader_->Warm(*service_, kTextWarmup, SubSeed(seed, 22));
    digest_.Add(world_.corpus);
    reader_->AddStreamPreview(&digest_);
  }

  std::string InputDigest() const override { return digest_.Hex(); }

  PhaseResult Run(double seconds, std::vector<SpanLog>* logs) override {
    PhaseResult r;
    SpanLog* log = logs->empty() ? nullptr : &(*logs)[0];
    reader_->Clear();
    service_->ResetStats();
    int64_t hits = 0;
    PhaseClock clock;
    clock.Start();
    for (int64_t rid = 0; clock.Elapsed() < seconds; ++rid) {
      TraceCtx t{log, rid, log ? log->Begin("request", rid, -1) : -1};
      const bool ok = reader_->Request(*service_, t, &r);
      if (log) {
        log->End(t.root);
        clock.Pause();
        // A request whose lookup missed the cache reached the backend:
        // replay its row one layer down.
        const int64_t now_hits = service_->Snapshot().cache_hits;
        if (ok && now_hits == hits) {
          ReplayScore(t, *replay_backend_, reader_->last_row(), &r);
          ReplayGemm(t, reader_->last_row(), world_.corpus, &gemm_out_, &r);
        }
        hits = now_hits;
        r.threads_peak = std::max(r.threads_peak, ThreadCount());
        clock.Resume();
      }
    }
    clock.Stop();
    FinishPhase(clock, &r);
    CacheCounters(service_->Snapshot(), &r);
    return r;
  }

  Verification Verify() override {
    return reader_->Verify(Oracle(world_.corpus));
  }

 private:
  std::unique_ptr<TextQueries> queries_;
  std::unique_ptr<TextReader> reader_;
  std::unique_ptr<serve::RetrievalService> service_;
  std::unique_ptr<serve::ScoringBackend> replay_backend_;
  Digest digest_;
  std::vector<float> gemm_out_;
};


// ------------------------------------------------------------- recipe_bulk

/// The offline "photos for every new recipe" job: batches of 64 full
/// recipes that never repeat, EmbedRecipes then QueryBatchWithOptions on
/// the "exhaustive" backend in micro-batches of 32.
class RecipeBulk final : public Workload {
 public:
  explicit RecipeBulk(uint64_t seed) : seed_(seed) {
    world_ = BuildWorld(seed, CorpusSide::kImages);
    serve::ServeConfig config;
    config.backend = serve::Backend::kExhaustive;
    config.micro_batch = kMicroBatch;
    service_ = Check(serve::RetrievalService::Create(world_.corpus, config),
                     "service");
    serve::BackendConfig backend_config;
    backend_config.items = world_.corpus;
    replay_backend_ =
        Check(serve::CreateBackend("exhaustive", backend_config), "backend");
    // Warm-up batches come from chunk "-1"; the timed stream from 0, 1, ...
    const std::vector<data::EncodedRecipe> warm = Generate(~0ull);
    for (int64_t lo = 0; lo + kBulkBatch <= static_cast<int64_t>(warm.size());
         lo += kBulkBatch) {
      const Tensor emb = world_.model->EmbedRecipes(Batch(warm, lo)).value();
      Check(service_->QueryBatchWithOptions(emb, kTopK, {}), "warm-up");
    }
    pool_ = Generate(chunk_++);
    digest_.Add(world_.corpus);
    for (const data::EncodedRecipe& r : pool_) {
      digest_.Add(r.ingredient_tokens.data(),
                  r.ingredient_tokens.size() * sizeof(int64_t));
      for (const auto& s : r.instruction_sentences) {
        digest_.Add(s.data(), s.size() * sizeof(int64_t));
      }
    }
  }

  std::string InputDigest() const override { return digest_.Hex(); }

  PhaseResult Run(double seconds, std::vector<SpanLog>* logs) override {
    PhaseResult r;
    SpanLog* log = logs->empty() ? nullptr : &(*logs)[0];
    asked_.clear();
    answers_.clear();
    service_->ResetStats();
    PhaseClock clock;
    clock.Start();
    for (int64_t rid = 0; clock.Elapsed() < seconds; ++rid) {
      if (next_ + kBulkBatch > static_cast<int64_t>(pool_.size())) {
        clock.Pause();
        pool_ = Generate(chunk_++);
        next_ = 0;
        clock.Resume();
      }
      const std::vector<const data::EncodedRecipe*> batch = Batch(pool_, next_);
      next_ += kBulkBatch;
      TraceCtx t{log, rid, log ? log->Begin("request", rid, -1) : -1};
      const TimePoint t0 = Clock::now();
      Tensor emb;
      {
        ScopedSpan span(log, "core.embed_batch", rid, t.root);
        emb = world_.model->EmbedRecipes(batch).value();
      }
      adamine::StatusOr<std::vector<std::vector<int64_t>>> ids =
          adamine::Status::Internal("not run");
      {
        ScopedSpan span(log, "serve.call", rid, t.root);
        ids = service_->QueryBatchWithOptions(emb, kTopK, {});
      }
      const TimePoint t1 = Clock::now();
      if (log) log->End(t.root);
      r.latency_ms.push_back(MillisBetween(t0, t1));
      r.attempted += kBulkBatch;
      asked_.push_back(emb);
      if (!ids.ok() || static_cast<int64_t>(ids->size()) != kBulkBatch) {
        r.failed += kBulkBatch;
        answers_.emplace_back(kBulkBatch);
      } else {
        r.ops += kBulkBatch;
        r.query_rows += kBulkBatch;
        answers_.push_back(std::move(ids).value());
      }
      if (log) {
        clock.Pause();
        for (int64_t lo = 0; lo < kBulkBatch; lo += kMicroBatch) {
          const Tensor micro = adamine::SliceRows(emb, lo, lo + kMicroBatch);
          ReplayScore(t, *replay_backend_, micro, &r);
          ReplayGemm(t, micro, world_.corpus, &gemm_out_, &r);
        }
        r.threads_peak = std::max(r.threads_peak, ThreadCount());
        clock.Resume();
      }
    }
    clock.Stop();
    FinishPhase(clock, &r);
    CacheCounters(service_->Snapshot(), &r);
    return r;
  }

  Verification Verify() override {
    Verification v;
    if (asked_.empty()) return v;
    Tensor queries(
        {static_cast<int64_t>(asked_.size()) * kBulkBatch, kLatentDim});
    for (size_t i = 0; i < asked_.size(); ++i) {
      std::memcpy(queries.data() + i * kBulkBatch * kLatentDim,
                  asked_[i].data(), sizeof(float) * kBulkBatch * kLatentDim);
    }
    const auto want =
        Oracle(world_.corpus).TopK(queries, kTopK, OracleThreads());
    Digest answers;
    for (size_t i = 0; i < answers_.size(); ++i) {
      for (int64_t j = 0; j < kBulkBatch; ++j) {
        const auto& got = answers_[i][static_cast<size_t>(j)];
        ++v.checked;
        if (got.empty()) continue;  // Already counted as failed.
        if (!SameIds(got, want[i * kBulkBatch + j])) ++v.mismatches;
        if (i == 0) {
          for (int64_t id : got) answers.AddInt(id);
        }
      }
    }
    v.answer_digest = answers.Hex();
    return v;
  }

 private:
  /// kBulkChunkBatches batches of fresh recipes from the dataset generator,
  /// encoded with the corpus vocabulary; chunk c never repeats another.
  std::vector<data::EncodedRecipe> Generate(uint64_t chunk) const {
    data::GeneratorConfig config = world_.pipeline->config().generator;
    config.num_recipes = kBulkChunkBatches * kBulkBatch;
    config.seed = SubSeed(seed_, 100 + chunk);
    auto generator = Check(data::RecipeGenerator::Create(config), "generator");
    return data::EncodeDataset(generator.Generate(), world_.pipeline->vocab());
  }

  static std::vector<const data::EncodedRecipe*> Batch(
      const std::vector<data::EncodedRecipe>& pool, int64_t lo) {
    std::vector<const data::EncodedRecipe*> batch;
    for (int64_t i = lo; i < lo + kBulkBatch; ++i) {
      batch.push_back(&pool[static_cast<size_t>(i)]);
    }
    return batch;
  }

  uint64_t seed_;
  std::unique_ptr<serve::RetrievalService> service_;
  std::unique_ptr<serve::ScoringBackend> replay_backend_;
  std::vector<data::EncodedRecipe> pool_;
  int64_t next_ = 0;
  uint64_t chunk_ = 0;
  Digest digest_;
  std::vector<Tensor> asked_;
  std::vector<std::vector<std::vector<int64_t>>> answers_;
  std::vector<float> gemm_out_;
};

// ------------------------------------------------------------- live_ingest

/// Largest MANIFEST generation and the segment count in a corpus dir.
struct DirState {
  int64_t generation = -1;
  int64_t segments = 0;
};

DirState ScanCorpusDir(const std::string& dir) {
  DirState s;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    long long generation = 0;
    if (std::sscanf(name.c_str(), "MANIFEST-%lld", &generation) == 1 &&
        name.find('.') == std::string::npos) {
      s.generation = std::max<int64_t>(s.generation, generation);
    }
    if (name.rfind("seg-", 0) == 0 && name.size() > 5 &&
        name.compare(name.size() - 5, 5, ".adms") == 0) {
      ++s.segments;
    }
  }
  return s;
}

/// The text_search reads in closed loop on the "mutable" backend while a
/// writer thread Adds freshly embedded photos and Deletes earlier uploads
/// at a fixed 200 ops/s. The benchmark keeps its own ledger of acked, live
/// rows; after the phase a probe set is checked against the scalar oracle
/// over the ledger.
class LiveIngest final : public Workload {
 public:
  LiveIngest(uint64_t seed, const std::string& dir, double seconds,
             bool traced)
      : seed_(seed), dir_(dir) {
    world_ = BuildWorld(seed, CorpusSide::kImages);
    writer_model_ = world_.CloneModel();
    queries_ = std::make_unique<TextQueries>(world_.pipeline->generator(),
                                             SubSeed(seed, 20));
    reader_ =
        std::make_unique<TextReader>(world_, *queries_, SubSeed(seed, 21));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    serve::ServeConfig config;
    config.backend = serve::Backend::kMutable;
    config.wal_dir = dir_ + "/wal";
    config.seal_threshold = kSealThreshold;
    config.cache_capacity = kCacheEntries;
    service_ = Check(serve::RetrievalService::Create(world_.corpus, config),
                     "service");
    if (traced) {
      // The mirror receives every acked mutation (applied by the reader,
      // off-clock) so replays score the same rows as the live backend.
      serve::BackendConfig backend_config;
      backend_config.items = world_.corpus;
      backend_config.wal_dir = dir_ + "/mirror";
      backend_config.seal_threshold = kSealThreshold;
      mirror_ =
          Check(serve::CreateBackend("mutable", backend_config), "mirror");
    }
    WaitForMaintenance();
    for (int64_t id = 0; id < kCorpusRows; ++id) {
      ledger_.emplace(id, Row(world_.corpus, id));
    }
    // Photos the writer uploads: enough for the whole phase at the fixed
    // rate, rendered here so the writer's only work is embed + Add.
    Rng pick_rng(SubSeed(seed, 31));
    Rng noise_rng(SubSeed(seed, 30));
    const int64_t uploads =
        static_cast<int64_t>(std::ceil(seconds * kWriterOpsPerSec)) + 16;
    photos_ = RenderPhotos(world_, uploads, pick_rng, noise_rng);
    reader_->Warm(*service_, kTextWarmup, SubSeed(seed, 22));
    digest_.Add(world_.corpus);
    reader_->AddStreamPreview(&digest_);
    for (size_t i = 0; i < std::min<size_t>(photos_.size(), kInputChunk); ++i) {
      digest_.Add(photos_[i]);
    }
  }

  ~LiveIngest() override {
    service_.reset();
    mirror_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::string InputDigest() const override { return digest_.Hex(); }

  PhaseResult Run(double seconds, std::vector<SpanLog>* logs) override {
    PhaseResult r;
    SpanLog* log = logs->empty() ? nullptr : &(*logs)[0];
    SpanLog* writer_log = logs->empty() ? nullptr : &(*logs)[1];
    reader_->Clear();
    service_->ResetStats();
    const DirState dir0 = ScanCorpusDir(dir_ + "/wal");
    const int64_t io0 = IoWriteBytes();
    WriterStats w;
    std::atomic<bool> stop{false};
    int64_t hits = 0;
    PhaseClock clock;
    clock.Start();
    std::thread writer([&] { Write(&stop, writer_log, &w); });
    for (int64_t rid = 0; clock.Elapsed() < seconds; ++rid) {
      TraceCtx t{log, rid, log ? log->Begin("request", rid, -1) : -1};
      const bool ok = reader_->Request(*service_, t, &r);
      if (log) {
        log->End(t.root);
        clock.Pause();
        const int64_t now_hits = service_->Snapshot().cache_hits;
        if (ok && now_hits == hits) Replay(t, &r);
        hits = now_hits;
        r.threads_peak = std::max(r.threads_peak, ThreadCount());
        clock.Resume();
      }
    }
    stop = true;
    writer.join();
    clock.Stop();
    FinishPhase(clock, &r);
    const serve::ServeStats stats = service_->Snapshot();
    CacheCounters(stats, &r);
    const int64_t io1 = IoWriteBytes();
    const DirState dir1 = ScanCorpusDir(dir_ + "/wal");

    r.attempted += w.attempted;
    r.failed += w.failed;
    r.ops += w.acked;
    const double user_bytes =
        static_cast<double>(w.adds_acked) * kLatentDim * sizeof(float);
    r.own_layers = {
        {"mutate.add_p50_ms", NearestRank(w.add_ms, 50), "ms"},
        {"mutate.add_p99_ms", NearestRank(w.add_ms, 99), "ms"},
        {"mutate.delete_p50_ms", NearestRank(w.delete_ms, 50), "ms"},
        {"mutate.delete_p99_ms", NearestRank(w.delete_ms, 99), "ms"},
        {"gen.writer_lag_ms", w.lateness.Percentile(99), "ms"}};
    r.layer["mutate.generations"] =
        static_cast<double>(dir1.generation - dir0.generation);
    r.layer["mutate.segments_end"] = static_cast<double>(dir1.segments);
    r.layer["mutate.mem_rows_peak"] = static_cast<double>(w.mem_rows_peak);
    r.layer["mutate.write_bytes_per_user_byte"] =
        io0 >= 0 && user_bytes > 0 ? (io1 - io0) / user_bytes : 0.0;
    r.layer["mutate.sheds"] = static_cast<double>(
        std::max(w.sheds, stats.mutation.backpressure_sheds));
    r.notes.push_back(Format(
        "writer: %lld ops (%lld adds, %lld deletes acked, %lld failed); "
        "add ack p50 %.3f p99 %.3f max %.3f ms (n=%zu); delete ack p50 "
        "%.3f p99 %.3f max %.3f ms (n=%zu); lateness p50 %.3f p99 %.3f "
        "max %.3f ms",
        static_cast<long long>(w.attempted),
        static_cast<long long>(w.adds_acked),
        static_cast<long long>(w.acked - w.adds_acked),
        static_cast<long long>(w.failed), NearestRank(w.add_ms, 50),
        NearestRank(w.add_ms, 99), NearestRank(w.add_ms, 100), w.add_ms.size(),
        NearestRank(w.delete_ms, 50), NearestRank(w.delete_ms, 99),
        NearestRank(w.delete_ms, 100), w.delete_ms.size(),
        w.lateness.Percentile(50), w.lateness.Percentile(99),
        w.lateness.Max()));
    return r;
  }

  Verification Verify() override {
    Verification v;
    // The probe set: the most popular queries, asked again through the
    // cache-bypassing scored path and through the cached path.
    Tensor probes({kProbeQueries, kLatentDim});
    for (int64_t q = 0; q < kProbeQueries; ++q) {
      const Tensor emb =
          EmbedText(world_, *world_.model, queries_->query(q), {});
      std::memcpy(probes.data() + q * kLatentDim, emb.data(),
                  sizeof(float) * kLatentDim);
    }
    std::vector<int64_t> ids;
    Tensor rows({static_cast<int64_t>(ledger_.size()), kLatentDim});
    for (const auto& [id, row] : ledger_) {
      std::memcpy(rows.data() + ids.size() * kLatentDim, row.data(),
                  sizeof(float) * kLatentDim);
      ids.push_back(id);
    }
    const auto want =
        Oracle(rows, std::move(ids)).TopK(probes, kTopK, OracleThreads());
    const auto scored = service_->QueryBatchScored(probes, kTopK, {});
    const auto cached = service_->QueryBatchWithOptions(probes, kTopK, {});
    for (int64_t q = 0; q < kProbeQueries; ++q) {
      v.checked += 2;
      const size_t i = static_cast<size_t>(q);
      if (!scored.ok() || !SameHits((*scored)[i], want[i])) ++v.mismatches;
      if (!cached.ok() || !SameIds((*cached)[i], want[i])) ++v.mismatches;
    }
    v.notes.push_back("ledger: " + std::to_string(ledger_.size()) +
                      " live rows; probe set of " +
                      std::to_string(kProbeQueries) +
                      " queries checked on the scored and cached paths");
    return v;
  }

 private:
  struct WriterStats {
    int64_t attempted = 0;
    int64_t acked = 0;
    int64_t adds_acked = 0;
    int64_t failed = 0;
    int64_t sheds = 0;
    int64_t mem_rows_peak = 0;
    std::vector<double> add_ms;
    std::vector<double> delete_ms;
    LatenessLog lateness;
  };

  struct Mutation {
    bool add = false;
    int64_t id = 0;
    Tensor row;
  };

  /// Set-up ends once seeding's seals and merges are done: no seal is
  /// pending and fewer sealed segments remain than trigger a merge, in the
  /// live corpus and in the mirror.
  void WaitForMaintenance() {
    const TimePoint give_up = Clock::now() + std::chrono::seconds(120);
    const auto idle = [](const serve::MutationPressure& p,
                         const std::string& dir) {
      return p.seal_lag == 0 && p.mem_rows < kSealThreshold &&
             ScanCorpusDir(dir).segments < kMergeThreshold;
    };
    while (!idle(service_->Snapshot().mutation, dir_ + "/wal") ||
           (mirror_ != nullptr &&
            !idle(mirror_->pressure(), dir_ + "/mirror"))) {
      ADAMINE_CHECK_MSG(Clock::now() < give_up,
                        "mutable backend never finished its initial seals");
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  /// The fixed-schedule writer: op i is due at start + i / 200 s; every
  /// tenth op deletes a random earlier upload, the rest add a photo.
  void Write(const std::atomic<bool>* stop, SpanLog* log, WriterStats* w) {
    const FixedRateSchedule schedule(Clock::now(), 1e3 / kWriterOpsPerSec);
    Rng rng(SubSeed(seed_, 32));
    std::vector<int64_t> uploads;
    for (int64_t i = 0; !stop->load(); ++i) {
      const TimePoint due = schedule.Due(i);
      std::this_thread::sleep_until(due);
      if (stop->load()) break;
      w->lateness.Record(due, Clock::now());
      ++w->attempted;
      TraceCtx t{log, i, log ? log->Begin("write", i, -1) : -1};
      if (i % kDeleteEvery == kDeleteEvery - 1 && !uploads.empty()) {
        const size_t pick = static_cast<size_t>(
            rng.UniformInt(static_cast<int64_t>(uploads.size())));
        const int64_t id = uploads[pick];
        uploads[pick] = uploads.back();
        uploads.pop_back();
        const TimePoint t0 = Clock::now();
        adamine::Status st;
        {
          ScopedSpan span(log, "mutate.delete", i, t.root);
          st = service_->Delete(id);
        }
        w->delete_ms.push_back(MillisBetween(t0, Clock::now()));
        Settle(st, Mutation{false, id, {}}, w);
      } else {
        const Tensor& photo = photos_[static_cast<size_t>(next_photo_++) %
                                      photos_.size()];
        Tensor row;
        {
          ScopedSpan span(log, "core.embed_image", i, t.root);
          row = writer_model_->EmbedImages(photo).value().Reshape({kLatentDim});
        }
        const TimePoint t0 = Clock::now();
        adamine::StatusOr<int64_t> id = adamine::Status::Internal("not run");
        {
          ScopedSpan span(log, "mutate.add", i, t.root);
          id = service_->Add(row);
        }
        w->add_ms.push_back(MillisBetween(t0, Clock::now()));
        if (id.ok()) {
          uploads.push_back(*id);
          ++w->adds_acked;
        }
        Settle(id.ok() ? adamine::Status::Ok() : id.status(),
               Mutation{true, id.ok() ? *id : -1, row}, w);
      }
      if (log) log->End(t.root);
      w->mem_rows_peak =
          std::max(w->mem_rows_peak, service_->Snapshot().mutation.mem_rows);
    }
  }

  /// Books one mutation's outcome in the ledger and the mirror queue.
  void Settle(const adamine::Status& st, Mutation m, WriterStats* w) {
    if (!st.ok()) {
      ++w->failed;
      if (st.code() == adamine::StatusCode::kResourceExhausted) ++w->sheds;
      return;
    }
    ++w->acked;
    if (m.add) {
      ledger_.emplace(m.id, m.row);
    } else {
      ledger_.erase(m.id);
    }
    if (mirror_ != nullptr) {
      std::lock_guard<std::mutex> lock(pending_mu_);
      pending_.push_back(std::move(m));
    }
  }

  /// One layer down for a cache miss: bring the mirror up to the acked
  /// state, then score the row on it and replay the GEMM at the corpus
  /// shape.
  void Replay(const TraceCtx& t, PhaseResult* r) {
    std::deque<Mutation> pending;
    {
      std::lock_guard<std::mutex> lock(pending_mu_);
      pending.swap(pending_);
    }
    for (const Mutation& m : pending) {
      if (m.add) {
        const auto id = mirror_->Add(m.row);
        ADAMINE_CHECK_MSG(id.ok() && *id == m.id, "mirror diverged");
      } else {
        const adamine::Status st = mirror_->Delete(m.id);
        ADAMINE_CHECK_MSG(st.ok(), st.ToString());
      }
    }
    ReplayScore(t, *mirror_, reader_->last_row(), r);
    ReplayGemm(t, reader_->last_row(), world_.corpus, &gemm_out_, r);
  }

  uint64_t seed_;
  std::string dir_;
  std::unique_ptr<core::CrossModalModel> writer_model_;
  std::unique_ptr<TextQueries> queries_;
  std::unique_ptr<TextReader> reader_;
  std::unique_ptr<serve::RetrievalService> service_;
  std::unique_ptr<serve::ScoringBackend> mirror_;
  std::vector<Tensor> photos_;
  int64_t next_photo_ = 0;
  std::map<int64_t, Tensor> ledger_;  // Acked live rows by id.
  std::mutex pending_mu_;
  std::deque<Mutation> pending_;  // Acked, not yet applied to the mirror.
  Digest digest_;
  std::vector<float> gemm_out_;
};


// ------------------------------------------------------------------ report

/// The per-layer metrics of BENCHMARK.json, in its order. Each is measured
/// on every workload, so no timing reads a constant 0: the query-embedding
/// and serving-call timings name the workload's own call, and the GEMM is
/// replayed at the workload's scoring shape even where (text_search) the
/// backend does not run it. Layers only one workload has are printed as
/// "# layer" lines instead; counters of an absent layer read 0.
const std::vector<std::pair<const char*, const char*>>& LayerMetrics() {
  static const std::vector<std::pair<const char*, const char*>> kMetrics = {
      {"data.pipeline_s", "s"},
      {"core.embed_corpus_s", "s"},
      {"core.embed_query_ms", "ms"},
      {"serve.call_ms", "ms"},
      {"serve.self_ms", "ms"},
      {"serve.cache_hit_ratio", "ratio"},
      {"serve.cache_hits", "count"},
      {"serve.cache_lookups", "count"},
      {"backend.score_ms", "ms"},
      {"backend.rows_per_call", "rows"},
      {"kernel.gemm_ms", "ms"},
      {"kernel.gemm_gflops", "GFLOP/s"},
      {"kernel.pack_bytes_per_call", "bytes"},
      {"net.pool_hit_ratio", "ratio"},
      {"shard.retries", "count"},
      {"shard.hedges", "count"},
      {"sharded.partial", "count"},
      {"mutate.generations", "count"},
      {"mutate.segments_end", "count"},
      {"mutate.mem_rows_peak", "rows"},
      {"mutate.write_bytes_per_user_byte", "ratio"},
      {"mutate.sheds", "count"},
      {"proc.ctx_switches_per_op", "count"},
      {"proc.threads_peak", "threads"},
      {"trace.overhead_p50_pct", "%"},
  };
  return kMetrics;
}

using RequestKey = std::pair<int, int64_t>;  // (thread, request id)

/// Durations of the spans named `name`, and their per-request sum and max.
struct SpanGroup {
  std::vector<double> each_ms;
  std::map<RequestKey, double> sum_ms;
  std::map<RequestKey, double> max_ms;
};

SpanGroup Group(const std::vector<SpanLog>& logs, const char* name,
                int thread = -1) {
  SpanGroup g;
  for (const SpanLog& log : logs) {
    if (thread >= 0 && log.thread() != thread) continue;
    for (const Span& span : log.spans()) {
      if (std::strcmp(span.name, name) != 0) continue;
      const RequestKey key{log.thread(), span.request};
      g.each_ms.push_back(span.ms());
      g.sum_ms[key] += span.ms();
      g.max_ms[key] = std::max(g.max_ms[key], span.ms());
    }
  }
  return g;
}

/// Median over the requests of `outer` of (outer - inner), where inner is
/// the request's replayed time one layer down (0 when it had none).
double MedianDifference(const std::map<RequestKey, double>& outer,
                        const std::map<RequestKey, double>& inner) {
  std::vector<double> diff;
  for (const auto& [key, ms] : outer) {
    const auto it = inner.find(key);
    diff.push_back(ms - (it == inner.end() ? 0.0 : it->second));
  }
  return Median(diff);
}

struct EndToEnd {
  double throughput_qps = 0.0;
  double p50_ms = 0.0;
  double cpu_ms_per_op = 0.0;
  double peak_rss_mb = 0.0;
};

/// Pools `from` into `into`: the phase measured in slices, one per set-up.
void Pool(PhaseResult from, PhaseResult* into) {
  into->attempted += from.attempted;
  into->failed += from.failed;
  into->query_rows += from.query_rows;
  into->ops += from.ops;
  into->latency_ms.insert(into->latency_ms.end(), from.latency_ms.begin(),
                          from.latency_ms.end());
  into->wall_s += from.wall_s;
  into->cpu_ms += from.cpu_ms;
  into->ctx_switches += from.ctx_switches;
  into->peak_rss_mib = std::max(into->peak_rss_mib, from.peak_rss_mib);
  // Layer counters are reported from a traced run's single untraced slice.
  into->layer = std::move(from.layer);
  into->own_layers = std::move(from.own_layers);
  for (std::string& note : from.notes) into->notes.push_back(std::move(note));
}

EndToEnd Summarize(const PhaseResult& r) {
  EndToEnd e;
  e.throughput_qps = r.wall_s > 0 ? r.query_rows / r.wall_s : 0.0;
  e.p50_ms = NearestRank(r.latency_ms, 50);
  e.cpu_ms_per_op = r.ops > 0 ? r.cpu_ms / r.ops : 0.0;
  e.peak_rss_mb = r.peak_rss_mib;
  return e;
}

/// The highest of p99.9 / p99 / p90 that has at least ten samples beyond
/// it, as "p99 4.2 ms", or "" when the sample is too small for any.
std::string Tail(const std::vector<double>& ms) {
  const double n = static_cast<double>(ms.size());
  for (double p : {99.9, 99.0, 90.0}) {
    if (n * (100.0 - p) / 100.0 >= 10.0) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "p%g %.4f ms", p, NearestRank(ms, p));
      return buf;
    }
  }
  return "";
}

void PrintPhase(const char* label, const PhaseResult& r) {
  const EndToEnd e = Summarize(r);
  std::printf(
      "# %s: %.2f s on the clock, %lld attempted, %lld failed, %lld ops, "
      "%lld query rows\n"
      "#   throughput %.2f rows/s, cpu %.4f ms/op, peak rss %.1f MiB\n"
      "#   latency p50 %.4f ms, %s, max %.4f ms (n=%zu)\n",
      label, r.wall_s, static_cast<long long>(r.attempted),
      static_cast<long long>(r.failed), static_cast<long long>(r.ops),
      static_cast<long long>(r.query_rows), e.throughput_qps, e.cpu_ms_per_op,
      e.peak_rss_mb, e.p50_ms, Tail(r.latency_ms).c_str(),
      NearestRank(r.latency_ms, 100), r.latency_ms.size());
  for (const std::string& note : r.notes) std::printf("#   %s\n", note.c_str());
}

/// The slowest requests (root spans) of each traced thread, with their
/// direct live children and self time, so a stall shows which layer it
/// sat in.
void PrintSlowest(const std::vector<SpanLog>& logs, size_t n) {
  for (const SpanLog& log : logs) {
    const std::vector<Span>& spans = log.spans();
    std::vector<int32_t> roots;
    for (size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].parent < 0) roots.push_back(static_cast<int32_t>(i));
    }
    const size_t top = std::min(n, roots.size());
    std::partial_sort(roots.begin(), roots.begin() + top, roots.end(),
                      [&](int32_t a, int32_t b) {
                        return spans[a].ms() > spans[b].ms();
                      });
    for (size_t r = 0; r < top; ++r) {
      const int32_t root = roots[r];
      std::string line = Format("# slowest on thread %d: %s %lld at %.1f ms: "
                                "%.3f ms =",
                                log.thread(), spans[root].name,
                                static_cast<long long>(spans[root].request),
                                spans[root].start_ns * 1e-6, spans[root].ms());
      for (size_t c = root + 1;
           c < spans.size() && spans[c].request == spans[root].request; ++c) {
        if (spans[c].parent == root && spans[c].start_ns < spans[root].end_ns) {
          line += Format(" %s %.3f +", spans[c].name, spans[c].ms());
        }
      }
      std::printf("%s self %.3f\n", line.c_str(), log.SelfMs(root));
    }
  }
}

std::string ReadCpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string tmp;
  std::string spans;
  std::string source = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a->workload = value;
    } else if (key == "--seed") {
      a->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      a->seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && a->seconds > 0;
    } else if (key == "--trace") {
      a->trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (key == "--tmp") {
      a->tmp = value;
    } else if (key == "--spans") {
      a->spans = value;
    } else if (key == "--source") {
      a->source = value;
    } else {
      return false;
    }
  }
  const std::set<std::string> workloads = {"photo_search", "text_search",
                                           "recipe_bulk", "live_ingest"};
  return argc % 2 == 1 && workloads.count(a->workload) > 0 && have_seed &&
         have_seconds && have_trace && !a->tmp.empty();
}

std::unique_ptr<Workload> MakeWorkload(const Args& a, int setup,
                                       double seconds, bool traced) {
  if (a.workload == "photo_search") {
    return std::make_unique<PhotoSearch>(a.seed);
  }
  if (a.workload == "text_search") return std::make_unique<TextSearch>(a.seed);
  if (a.workload == "recipe_bulk") return std::make_unique<RecipeBulk>(a.seed);
  return std::make_unique<LiveIngest>(
      a.seed, a.tmp + "/live_ingest-" + std::to_string(getpid()) + "-" +
                  std::to_string(setup),
      seconds, traced);
}

void PrintJson(bool correct, int64_t attempted, int64_t failed,
               const std::vector<std::tuple<std::string, double, std::string>>&
                   metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, value, unit] = metrics[i];
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(value) ? value : 0.0);
    out += (i ? ", \"" : "\"") + name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int Main(int argc, char** argv) {
  const TimePoint process_start = Clock::now();
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: serve_bench --workload photo_search|text_search|"
                 "recipe_bulk|live_ingest --seed N --seconds S --trace 0|1 "
                 "--tmp DIR [--spans FILE] [--source ID]\n");
    return 2;
  }
  adamine::kernel::SetNumThreads(kKernelThreads);
  const bool live = args.workload == "live_ingest";
  std::printf(
      "# workload %s seed %llu seconds %g trace %d\n"
      "# machine: nproc %ld, cpu \"%s\"; source %s\n"
      "# threads: kernel pool %d, load %s, shard servers %lld x %d workers "
      "(photo_search only)\n"
      "# corpus: %lld x %lld, %lld classes, top-%lld, %d set-ups\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN),
      ReadCpuModel().c_str(), args.source.c_str(),
      adamine::kernel::NumThreads(),
      live ? "1 reader + 1 writer" : "1 client",
      static_cast<long long>(kShards), kShardWorkers,
      static_cast<long long>(kCorpusRows), static_cast<long long>(kLatentDim),
      static_cast<long long>(kClasses), static_cast<long long>(kTopK),
      kSetups);

  // Untraced, the measured time is split into one slice per set-up, so no
  // single process layout decides the run. Tracing splits it in two: the
  // second-to-last set-up runs an untraced half (the reference for the
  // tracing overhead and the source of the counters), the last a traced
  // half.
  const double phase_seconds =
      args.seconds / (args.trace ? 2 : kSetups);
  std::vector<double> setup_s, pipeline_s, corpus_s;
  PhaseResult untraced, traced;
  std::vector<SpanLog> logs;
  int64_t mismatches = 0, checked = 0;
  std::string input_digest, answer_digest;
  bool same_inputs = true;
  bool same_answers = true;
  std::vector<std::string> notes;
  for (int s = 0; s < kSetups; ++s) {
    const bool run_untraced = !args.trace || s == kSetups - 2;
    const bool run_traced = args.trace && s == kSetups - 1;
    const TimePoint t0 = s == 0 ? process_start : Clock::now();
    std::unique_ptr<Workload> w =
        MakeWorkload(args, s, phase_seconds, run_traced);
    setup_s.push_back(MillisBetween(t0, Clock::now()) * 1e-3);
    pipeline_s.push_back(w->world().pipeline_s);
    corpus_s.push_back(w->world().embed_corpus_s);
    if (s == 0) input_digest = w->InputDigest();
    same_inputs = same_inputs && w->InputDigest() == input_digest;
    if (!run_untraced && !run_traced) continue;
    std::vector<SpanLog> phase_logs;
    if (run_traced) {
      phase_logs.emplace_back(Clock::now(), 0);
      phase_logs.emplace_back(phase_logs[0].origin(), 1);
    }
    PhaseResult r = w->Run(phase_seconds, &phase_logs);
    const Verification v = w->Verify();
    mismatches += v.mismatches;
    checked += v.checked;
    if (run_untraced) {
      if (answer_digest.empty()) answer_digest = v.answer_digest;
      same_answers = same_answers && v.answer_digest == answer_digest;
    }
    for (const std::string& note : v.notes) notes.push_back(note);
    if (run_traced) {
      traced = std::move(r);
      logs = std::move(phase_logs);
    } else {
      const EndToEnd e = Summarize(r);
      r.notes.insert(r.notes.begin(),
                     Format("slice %d: p50 %.4f ms, %.2f rows/s, %.4f cpu "
                            "ms/op", s, e.p50_ms, e.throughput_qps,
                            e.cpu_ms_per_op));
      Pool(std::move(r), &untraced);
    }
  }

  std::printf("# set-up s:");
  for (size_t i = 0; i < setup_s.size(); ++i) {
    std::printf(" %.3f (pipeline %.3f, corpus %.3f)", setup_s[i],
                pipeline_s[i], corpus_s[i]);
  }
  std::printf(
      "\n# input digest %s (%s across set-ups); answer digest %s (%s)\n",
      input_digest.c_str(), same_inputs ? "same" : "DIFFERENT",
      answer_digest.c_str(), same_answers ? "same" : "DIFFERENT");
  PrintPhase(args.trace ? "untraced half" : "timed phase", untraced);
  if (args.trace) PrintPhase("traced half", traced);
  for (const std::string& note : notes) std::printf("# %s\n", note.c_str());
  std::printf("# oracle: %lld answers checked, %lld mismatches\n",
              static_cast<long long>(checked),
              static_cast<long long>(mismatches));

  const int64_t attempted = untraced.attempted + traced.attempted;
  const int64_t failed = untraced.failed + traced.failed + mismatches;
  const bool correct =
      failed == 0 && same_inputs && same_answers && attempted > 0;
  std::vector<std::tuple<std::string, double, std::string>> metrics;
  if (!args.trace) {
    const EndToEnd e = Summarize(untraced);
    metrics = {{"setup_s", Median(setup_s), "s"},
               {"throughput_qps", e.throughput_qps, "1/s"},
               {"p50_ms", e.p50_ms, "ms"},
               {"cpu_ms_per_op", e.cpu_ms_per_op, "ms"},
               {"peak_rss_mb", e.peak_rss_mb, "MiB"}};
  } else {
    std::map<std::string, double> m = untraced.layer;
    m["data.pipeline_s"] = Median(pipeline_s);
    m["core.embed_corpus_s"] = Median(corpus_s);
    // The request thread's own calls: photo_search embeds a photo and
    // calls the sharded service, recipe_bulk embeds a batch, the text
    // workloads embed one query; the others call RetrievalService.
    const bool photo = args.workload == "photo_search";
    const char* embed_span = photo ? "core.embed_image"
                             : args.workload == "recipe_bulk"
                                 ? "core.embed_batch"
                                 : "core.embed_recipe";
    m["core.embed_query_ms"] = Median(Group(logs, embed_span, 0).each_ms);
    const SpanGroup call = Group(logs, photo ? "sharded.call" : "serve.call");
    const SpanGroup score = Group(logs, "backend.score");
    const SpanGroup shard = Group(logs, "shard.service");
    m["serve.call_ms"] = Median(call.each_ms);
    m["serve.self_ms"] = MedianDifference(
        call.sum_ms, photo ? shard.max_ms : score.sum_ms);
    m["backend.score_ms"] = Median(score.each_ms);
    m["backend.rows_per_call"] =
        traced.backend_calls > 0
            ? static_cast<double>(traced.backend_rows) / traced.backend_calls
            : 0.0;
    const double gemm_ms = Median(Group(logs, "kernel.gemm").each_ms);
    m["kernel.gemm_ms"] = gemm_ms;
    m["kernel.gemm_gflops"] =
        gemm_ms > 0 ? 2.0 * traced.gemm_m * traced.gemm_n * traced.gemm_k /
                          (gemm_ms * 1e6)
                    : 0.0;
    m["kernel.pack_bytes_per_call"] = static_cast<double>(
        traced.gemm_n * traced.gemm_k * static_cast<int64_t>(sizeof(float)));
    m["proc.threads_peak"] = static_cast<double>(traced.threads_peak);
    const double base_p50 = NearestRank(untraced.latency_ms, 50);
    m["trace.overhead_p50_pct"] =
        base_p50 > 0
            ? (NearestRank(traced.latency_ms, 50) / base_p50 - 1.0) * 100.0
            : 0.0;

    // Layers only some workloads have, printed where they are measured.
    std::vector<std::tuple<std::string, double, std::string>> own =
        untraced.own_layers;
    const auto add_span = [&](const char* metric, const char* span,
                              double scale, const char* unit) {
      const SpanGroup g = Group(logs, span);
      if (!g.each_ms.empty()) {
        own.emplace_back(metric, Median(g.each_ms) * scale, unit);
      }
    };
    add_span("core.embed_image_ms", "core.embed_image", 1.0, "ms");
    add_span("core.embed_recipe_ms", "core.embed_recipe", 1.0, "ms");
    add_span("core.embed_batch_ms", "core.embed_batch", 1.0, "ms");
    add_span("text.encode_us", "text.encode", 1e3, "us");
    if (photo) {
      std::vector<double> slowest_shard;
      for (const auto& [key, ms] : shard.max_ms) slowest_shard.push_back(ms);
      own.emplace_back("sharded.call_ms", Median(call.each_ms), "ms");
      own.emplace_back("shard.service_ms", Median(slowest_shard), "ms");
      own.emplace_back("net.overhead_ms", m["serve.self_ms"], "ms");
    }
    for (const auto& [name, value, unit] : own) {
      std::printf("# layer %s %.6g %s\n", name.c_str(), value, unit.c_str());
    }
    for (const auto& [name, unit] : LayerMetrics()) {
      metrics.emplace_back(name, m.count(name) ? m.at(name) : 0.0, unit);
    }
    PrintSlowest(logs, 3);
    if (!args.spans.empty()) {
      std::string out;
      for (const SpanLog& log : logs) log.WriteJsonLines(&out);
      std::ofstream file(args.spans, std::ios::binary | std::ios::trunc);
      file << out;
      std::printf("# spans: %s\n", args.spans.c_str());
    }
  }
  PrintJson(correct, attempted, failed, metrics);
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
